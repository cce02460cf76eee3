"""The python examples of README.md run as written, in order, in one
namespace, and give the values that their comments state."""

import re
from pathlib import Path

import numpy as np

README = Path(__file__).resolve().parents[1] / "README.md"
# an expression line whose comment states its value: ``expr  # ~value...``
CLAIM = re.compile(r"^(?P<expr>[^#\s][^#]*?)\s+# ~(?P<value>[-+0-9.e]+)")


def python_blocks() -> list[str]:
    return re.findall(r"^```python\n(.*?)^```", README.read_text(encoding="utf-8"),
                      flags=re.M | re.S)


def test_readme_examples_state_their_values():
    namespace: dict = {}
    claims = []
    for block in python_blocks():
        exec(compile(block, str(README), "exec"), namespace)
        for line in block.splitlines():
            m = CLAIM.match(line)
            if m:
                got = float(eval(m["expr"], namespace))
                claims.append((m["expr"], got, float(m["value"])))
    # the first example: "every support value is 0.5"
    np.testing.assert_allclose(namespace["res"].outer.support, 0.5, rtol=0, atol=1e-12)
    # the regrouped gap, the identity baseline's gap and the oracle cloud's
    # distance to the region, each to 1e-9 of the stated value
    assert len(claims) == 3, claims
    for expr, got, want in claims:
        assert abs(got - want) <= 1e-9, (expr, got, want)
