"""Every input ends in a verdict (exit 0 or 1) or in one configuration error
line (exit 2), over the whole float range of hbar, omega and half_extent.
`cli.main` runs in process, so no example pays the interpreter's import."""

import contextlib
import io
import json
import math

from hypothesis import example, given, settings
from hypothesis import strategies as st

from qpb.cli import main
from qpb.report import CHECKS
from qpb.suites import SUITE_NAMES


def log_uniform():
    """Positive floats whose decimal exponents are uniform over the float
    range, subnormals included."""
    return st.floats(-323.0, 308.25).map(lambda e: 10.0**e)


def flag(name, values):
    return st.one_of(st.just([]), values.map(lambda v: [name, repr(v)]))


argvs = st.builds(
    lambda suite, *flags: ["verify", suite, "--format", "json"] + sum(flags, []),
    st.sampled_from(SUITE_NAMES),
    flag("--hbar", log_uniform()),
    flag("--omega", log_uniform()),
    flag("--half-extent", log_uniform()),
    # any other size is a configuration error at once, so half the draws
    # are powers of two
    flag("--n-points", st.integers(3, 9).map(lambda k: 2**k) | st.integers(8, 512)),
    flag("--n-trunc", st.integers(9, 128)),
    flag("--seed", st.integers(0, 2**32 - 1)),
    st.one_of(st.just([]), st.tuples(
        st.sampled_from(sorted(CHECKS)), st.just(0.0) | log_uniform(),
    ).map(lambda kv: ["--tolerance", f"{kv[0]}={kv[1]!r}"])),
)


@settings(derandomize=True, max_examples=60, deadline=None, database=None)
@given(argvs)
# without the trap: NaN residuals, a ZeroDivisionError and eigh's LinAlgError
@example(["verify", "ladder", "--hbar", "1e200", "--omega", "1e200", "--format", "json"])
@example(["verify", "fourier", "--half-extent", "5e-324", "--format", "json"])
@example(["verify", "ladder", "--omega", "5e-324", "--n-trunc", "9", "--format", "json"])
def test_every_config_ends_in_a_verdict_or_one_error_line(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    assert code in (0, 1, 2)
    if code == 2:
        assert out.getvalue() == ""
        assert err.getvalue().startswith("error: ") and err.getvalue().count("\n") == 1
    else:
        assert err.getvalue() == ""
        reports = json.loads(out.getvalue())
        assert all(math.isfinite(r["residual"]) for r in reports), argv
        assert (code == 0) == all(r["pass"] for r in reports)
