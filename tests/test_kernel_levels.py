"""Every byte-exact test passes again at each other kernel level.

The runs and their settings are in ``tests/kernel_levels.py``.  A whole run
passing means the marked tests' bits depend neither on the SIMD level nor on
the thread count.
"""

import re

import pytest

from kernel_levels import SETTINGS


@pytest.mark.parametrize("setting", list(SETTINGS))
def test_byte_exact_tests_pass(kernel_level_runs, setting):
    if setting not in kernel_level_runs:
        pytest.skip(f"numpy reports no {SETTINGS[setting][1]}: nothing to turn off or to run")
    run = kernel_level_runs[setting]
    assert run.returncode == 0, run.tail()
    # every marked test ran and passed: none skipped, xfailed or errored
    assert re.fullmatch(r"\d+ passed, \d+ deselected(, \d+ warnings?)? in .*", run.summary), \
        run.summary
