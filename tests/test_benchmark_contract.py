"""The traced benchmark run wraps package functions by name (TARGETS in
perfbench/spans.py).  A rename or deletion of a wrapped name fails here,
in the test suite, instead of in a traced benchmark run."""

import importlib
import importlib.util
import pathlib

import pytest

SPANS = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def _load_targets():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.TARGETS


TARGETS = _load_targets()


@pytest.mark.parametrize("module, attr", [t[1:3] for t in TARGETS], ids=[t[0] for t in TARGETS])
def test_target_resolves(module, attr):
    assert module.split(".")[0] == "macrohom"
    owner = importlib.import_module(module)
    if "." in attr:
        # wrapped through the class __dict__ as a classmethod
        cls_name, meth = attr.split(".")
        assert isinstance(getattr(owner, cls_name).__dict__[meth], classmethod)
    else:
        assert callable(getattr(owner, attr))

