"""The README's library example runs as written."""

import contextlib
import io
import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_library_example_prints_a_ratio_near_one():
    text = README.read_text()
    section = text[text.index("## Library example"):]
    code = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(code, "README.md", "exec"), {})
    assert abs(float(out.getvalue()) - 1.0) <= 1e-2


def test_config_example_verifies_as_written(tmp_path, capsys):
    from cknlab.cli import main
    text = README.read_text()
    section = text[text.index("### Configuration format"):]
    cfg = tmp_path / "example.cfg"
    cfg.write_text(re.search(r"```ini\n(.*?)```", section, re.S).group(1))
    assert main(["verify", str(cfg)]) == 0
    # the [sweep] over two kinds and two exponents: four sobolev_hs cases
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 4
    assert all(line.startswith("ok sobolev_hs") for line in lines)
