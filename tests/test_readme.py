"""The README's Python examples run as written, and its command lines parse."""

import re
import shlex
from pathlib import Path

import numpy as np

from floodseg.cli import _resolve_config
from floodseg.tensor import Tensor, grad_check, tsum

README = Path(__file__).resolve().parents[1] / "README.md"


def python_blocks() -> list[str]:
    return re.findall(r"^```python\n(.*?)^```", README.read_text(encoding="utf-8"),
                      flags=re.DOTALL | re.MULTILINE)


def run_blocks() -> list[dict]:
    namespaces = []
    for block in python_blocks():
        namespace = {"__name__": "readme"}
        exec(compile(block, str(README), "exec"), namespace)
        namespaces.append(namespace)
    return namespaces


def test_every_python_block_runs_in_a_fresh_namespace():
    assert len(python_blocks()) >= 2
    run_blocks()


def test_the_scale_example_passes_grad_check():
    scale = next(ns["scale"] for ns in run_blocks() if "scale" in ns)
    rng = np.random.RandomState(0)
    x = Tensor(rng.uniform(-1, 1, (3, 4)))
    w = Tensor(np.array(1.7))
    probe = Tensor(rng.uniform(-1, 1, (3, 4)))
    assert grad_check(lambda x, w: tsum(scale(x, w) * probe), [x, w]) < 1e-6


def test_every_floodseg_line_in_the_sh_blocks_resolves_its_configuration(tmp_path):
    """Parsing only: each README command line takes only keys its command reads."""
    text = README.read_text(encoding="utf-8")
    demo = tmp_path / "demo.cfg"
    demo.write_text(re.search(r"^```ini\n(.*?)^```", text, flags=re.DOTALL | re.MULTILINE)[1],
                    encoding="utf-8")
    blocks = re.findall(r"^```sh\n(.*?)^```", text, flags=re.DOTALL | re.MULTILINE)
    lines = [line for block in blocks for line in block.replace("\\\n", " ").splitlines()
             if line.startswith("floodseg ")]
    assert len(lines) >= 9
    for line in lines:
        command, *args = shlex.split(line)[1:]
        _resolve_config(command, [str(demo) if arg == "demo.cfg" else arg for arg in args])
