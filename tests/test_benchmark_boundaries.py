"""The benchmark's traced run wraps package functions by name.

``perfbench/spans.py`` lists every layer boundary as a (module, attribute)
pair and patches three more by hand, and ``perfbench/selftest.py`` lists
the modules that import some of them by name; a rename, deletion or moved
import in the package would break the traced run only when the benchmark
runs.  These tests read both lists (without importing the benchmark) and
resolve each name here.
"""

import ast
import importlib
import inspect
from pathlib import Path

import pytest

from symcocycle.distortion import Fingerprint
from symcocycle.dynamics import FlowMap, HamiltonianSpec
from symcocycle.exprlang import Expr, parse
from symcocycle.geometry import Window, plane

SPANS = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"
SELFTEST = SPANS.with_name("selftest.py")


def _assigned(path, name):
    """The literal value of a module-level assignment to ``name``."""
    tree = ast.parse(path.read_text())
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            getattr(t, "id", None) == name for t in node.targets
        ):
            return ast.literal_eval(node.value)
    raise AssertionError(f"no {name} in {path}")


BOUNDARIES = _assigned(SPANS, "BOUNDARIES")
IMPORT_SITES = _assigned(SELFTEST, "IMPORT_SITES")


def test_boundary_list_is_read():
    assert len(BOUNDARIES) > 20


@pytest.mark.parametrize(
    "home, attr",
    [
        pytest.param(home, attr, id=f"{home}.{attr}")
        for home, attr in sorted({(home, attr) for _, home, attr in BOUNDARIES})
    ],
)
def test_boundary_resolves(home, attr):
    mod = importlib.import_module(f"symcocycle.{home}")
    if "." in attr:
        # methods are patched on their own class, not inherited ones
        cls_name, meth = attr.split(".")
        target = vars(getattr(mod, cls_name)).get(meth)
    else:
        target = getattr(mod, attr, None)
    assert callable(target)


@pytest.mark.parametrize("label", sorted(IMPORT_SITES))
def test_import_sites_bind_the_same_function(label):
    # the self-test requires the traced wrapper at every listed site, which
    # only works while each site holds the very function object of its home
    home, attr = label.split(".")
    original = getattr(importlib.import_module(f"symcocycle.{home}"), attr)
    assert callable(original)
    for site in sorted(IMPORT_SITES[label]):
        bound = getattr(importlib.import_module(f"symcocycle.{site}"), attr, None)
        assert bound is original, f"symcocycle.{site}.{attr}"


def test_march_signature():
    params = list(inspect.signature(FlowMap._march).parameters)
    assert params == ["self", "p", "q", "t0", "t1", "on_node"]
    # the wrapper counts point-steps from the flow's step
    flow = FlowMap(HamiltonianSpec(parse("p")), plane(Window(-1, 1, -1, 1)), step=0.5)
    assert flow.step == 0.5


def test_fingerprint_init_and_key():
    params = list(inspect.signature(Fingerprint.__init__).parameters)
    assert params == ["self", "p_images", "q_images"]
    assert Fingerprint([0.0], [1.0]).key


def test_expr_fn_is_a_property():
    assert isinstance(vars(Expr)["fn"], property)
