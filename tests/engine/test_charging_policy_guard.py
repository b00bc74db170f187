"""The charging policy lives in the object store alone.

How a dereference is charged -- page-clustered through the object cache,
or one read per chase -- is decided inside ``engine/objects.py``.  The
operators (join kernels, executor, evaluator) call ``deref`` /
``deref_many`` / ``warm`` and must not branch on the cache themselves.
"""

from __future__ import annotations

import pathlib
import re

import pytest

import repro.engine

ENGINE = pathlib.Path(repro.engine.__file__).parent
FORBIDDEN = re.compile(r"cache_enabled|\.cache\b|batch_deref_enabled")


@pytest.mark.parametrize("module", ["joins.py", "executor.py",
                                    "evaluator.py"])
def test_operators_never_consult_the_cache(module):
    source = (ENGINE / module).read_text()
    hits = [
        f"{module}:{number}: {line.strip()}"
        for number, line in enumerate(source.splitlines(), 1)
        if FORBIDDEN.search(line)
    ]
    assert not hits, "\n".join(hits)
