"""The public surface: ``pairspec.__all__`` and the README's library example."""

import os

import numpy as np

import pairspec

_README = os.path.join(os.path.dirname(__file__), os.pardir, "README.md")


def test_every_exported_name_resolves():
    for name in pairspec.__all__:
        assert hasattr(pairspec, name), name


def test_readme_library_block_runs_verbatim():
    with open(_README, encoding="utf-8") as fh:
        readme = fh.read()
    block = readme.split("## Library", 1)[1].split("```python\n", 1)[1].split("```", 1)[0]
    assert "import pairspec as ps" in block
    namespace = {}
    exec(compile(block, "README.md", "exec"), namespace)
    assert np.isfinite(namespace["entropy"]) and namespace["entropy"] > 0
    assert namespace["mu"].log_abs_det < 0
