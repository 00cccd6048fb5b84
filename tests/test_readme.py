"""README's library example must run against the package as it is.

Every ```` ```python ```` block of README.md is executed in order in one
namespace, so the example's attribute reads (``p.x``, ``p.value``,
``p.nd1_holds``, ``p.nd2_holds``, ``p.kind``) fail here when a rename
leaves the README behind.
"""

import contextlib
import io
import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def test_python_blocks_run():
    blocks = re.findall(r"^```python\n(.*?)^```$", README.read_text(encoding="utf-8"),
                        flags=re.DOTALL | re.MULTILINE)
    assert blocks
    out = io.StringIO()
    namespace: dict = {}
    with contextlib.redirect_stdout(out):
        for block in blocks:
            exec(compile(block, str(README), "exec"), namespace)
    assert out.getvalue().splitlines()[-1] == "StableEvidence True"
