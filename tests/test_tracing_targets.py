"""The benchmark's tracer (perfbench/tracing.py) wraps pathrec functions and
methods by attribute name. A renamed or dropped attribute would make its
wrapper fail at install time, or, for an alias such as
`inference.policy_forward`, silently stop counting calls, so every target
must still be defined on its owner."""

import os
import sys

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

from perfbench import tracing  # noqa: E402


def test_every_traced_attribute_is_defined_on_its_owner():
    missing = [
        f"{owner.__name__}.{attr}"
        for owner, attr, *_ in tracing.TARGETS
        if attr not in owner.__dict__
    ]
    assert missing == []
