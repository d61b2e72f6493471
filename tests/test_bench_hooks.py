"""The names that the benchmark's tracer (``bench/tracer.py``) wraps and
rebinds exist in the package, so a rename in ``src/`` cannot silently drop
a traced layer.  The tracer is loaded from its file, unchanged."""
import importlib
import importlib.util
from pathlib import Path

import pytest

import swmlab.cli  # noqa: F401  (imports every module the tracer names)
from swmlab.oracles import (BMatchingOracle, BudgetedAdditiveOracle,
                            CoverageOracle, CutOracle, TableOracle,
                            ValuationOracle)

TRACER = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"


@pytest.fixture(scope="module")
def tracer():
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_name_resolves(tracer):
    for modname, attr, _ in tracer.TRACED:
        module = importlib.import_module(modname)
        if "." in attr:
            cls_name, meth = attr.split(".")
            # the tracer reads the method from the class's own __dict__
            assert meth in vars(getattr(module, cls_name)), (modname, attr)
        else:
            assert callable(getattr(module, attr)), (modname, attr)
    cli = importlib.import_module("swmlab.cli")
    for name in tracer.CLI_FUNCTIONS:
        assert callable(getattr(cli, name)), name


def test_value_mask_defined_on_the_base_class():
    """The tracer counts value queries by replacing the base class's
    ``value_mask``; a family that defined its own would escape the count."""
    assert "value_mask" in vars(ValuationOracle)
    for cls in (CoverageOracle, BudgetedAdditiveOracle, BMatchingOracle,
                CutOracle, TableOracle):
        assert "value_mask" not in vars(cls), cls


def test_gain_greedy_is_core_greedy():
    gain = importlib.import_module("swmlab.gain")   # the package exports gain()
    core = importlib.import_module("swmlab.core")
    assert gain.greedy is core.greedy
