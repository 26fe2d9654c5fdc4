"""The benchmark tracer (`perfbench/spans.py`) wraps mjlab functions by
attribute name, so renaming or moving one breaks `--trace 1`. These tests
catch that in tier-1, before any benchmark runs."""

import importlib.util
from pathlib import Path

SPANS = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"


def load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_probed_attribute_exists():
    probes = load_spans().mjlab_probes()
    assert probes
    missing = [f"{getattr(owner, '__qualname__', owner.__name__)}.{attr}"
               for owner, attr, *_ in probes if attr not in vars(owner)]
    assert not missing, f"probed names missing from mjlab: {missing}"


def test_backbone_load_stays_a_classmethod():
    from mjlab.model import Backbone

    assert isinstance(vars(Backbone)["load"], classmethod)
