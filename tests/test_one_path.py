"""Live and replay run one function per transaction.

A ``Registry`` method only opens a meter, runs its transaction's function
with the live ``emit`` and commits the report: every refusal and every
charge lives in that function, which replay runs too. ``replay_events``
reaches :mod:`didgov.coord` only through those functions. A refusal or a
charge made outside them, or a tally that replay changes by itself, is a
check the two paths no longer share.
"""

import ast
from pathlib import Path

import pytest

REGISTRY = Path(__file__).parent.parent / "src" / "didgov" / "registry.py"
TRANSACTIONS = {"anchor", "propose", "decide", "decide_batch", "resolve_manual", "advance_clock"}


def _callee(call: ast.Call) -> str:
    func = call.func
    return func.id if isinstance(func, ast.Name) else func.attr if isinstance(func, ast.Attribute) else ""


def _drift(tree: ast.Module) -> list[str]:
    """Each ``raise`` and ``charge`` call in a method of ``Registry``, and
    each call of a ``coord`` function in ``replay_events``."""
    found = []
    for node in tree.body:
        if isinstance(node, ast.ClassDef) and node.name == "Registry":
            for inner in ast.walk(node):
                if isinstance(inner, ast.Raise):
                    found.append(f"Registry:{inner.lineno} raises")
                elif isinstance(inner, ast.Call) and _callee(inner) == "charge":
                    found.append(f"Registry:{inner.lineno} charges")
        elif isinstance(node, ast.FunctionDef) and node.name == "replay_events":
            for inner in ast.walk(node):
                if (
                    isinstance(inner, ast.Call)
                    and isinstance(inner.func, ast.Attribute)
                    and isinstance(inner.func.value, ast.Name)
                    and inner.func.value.id == "coord"
                ):
                    found.append(f"replay_events:{inner.lineno} calls coord.{inner.func.attr}")
    return found


def test_registry_methods_and_replay_share_each_transaction_function():
    tree = ast.parse(REGISTRY.read_text(encoding="utf-8"))
    registry = next(node for node in tree.body if isinstance(node, ast.ClassDef) and node.name == "Registry")
    assert TRANSACTIONS <= {node.name for node in registry.body if isinstance(node, ast.FunctionDef)}
    assert _drift(tree) == []


@pytest.mark.parametrize(
    "source",
    [
        "class Registry:\n    def decide(self, decision):\n        raise NoActiveProposal('closed')",
        "class Registry:\n    def anchor(self, did):\n        charge(meter, 'base_tx', 1)",
        "class Registry:\n    def advance_clock(self, to):\n        self.meter.charge('base_tx')",
        "def replay_events(events):\n    coord.append_entry(config, tally, entry)",
    ],
)
def test_the_guard_finds_a_check_outside_the_shared_functions(source):
    assert len(_drift(ast.parse(source))) == 1
