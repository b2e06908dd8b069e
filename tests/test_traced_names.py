"""Every function the benchmark's tracer wraps exists where it looks.

``perfbench/spans.py`` replaces each ``(owner, attribute)`` of its
``TARGETS`` with a timing wrapper, reading ``owner.__dict__[attribute]``.
A function the engine no longer calls (``model.event_to_json`` is only the
reference projection of an event line) still has to stay: renaming or
deleting one makes the traced benchmark run fail with a ``KeyError``
inside a subprocess. This test names it at once.
"""

import importlib.util
from pathlib import Path

SPANS = Path(__file__).parent.parent / "perfbench" / "spans.py"


def test_every_traced_attribute_exists():
    spec = importlib.util.spec_from_file_location("_traced_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    missing = [
        f"{owner.__name__}.{attr}" for owner, attr, _name in spans.TARGETS if attr not in owner.__dict__
    ]
    assert spans.TARGETS and not missing, f"perfbench/spans.py traces missing attributes: {missing}"
