import pathlib
import re


def test_readme_python_block_runs():
    # the README's library example is the code a reader copies first: it
    # must run as written, on the names the package exports today
    readme = (pathlib.Path(__file__).parent.parent / "README.md").read_text()
    blocks = re.findall(r"```python\n(.*?)```", readme, re.S)
    assert len(blocks) == 1
    namespace = {}
    exec(compile(blocks[0], "README.md", "exec"), namespace)
    assert namespace["value"].shape == namespace["truncation"].shape == (100,)
    assert namespace["first"].tolist() == namespace["value"][:1].tolist()
