"""Golden CLI outputs: each file under data/ holds the stdout of one `qpb`
command, and a fresh run must write the same bytes whatever the BLAS thread
count. A change that moves a residual's bits says which and why, and
refreshes the copy."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

DATA = Path(__file__).with_name("data")
# golden file -> the qpb arguments that write it
CORPUS = {
    "weyl_n_trunc_96.json": ("verify", "weyl", "--n-trunc", "96", "--format", "json"),
    "ladder_n_trunc_512.json": ("verify", "ladder", "--n-trunc", "512", "--format", "json"),
    "ladder_hbar_0.3_omega_2_n_trunc_200.json": ("verify", "ladder", "--hbar", "0.3", "--omega",
                                                 "2.0", "--n-trunc", "200", "--format", "json"),
}


@pytest.mark.parametrize("threads", ["1", "2"])
@pytest.mark.parametrize("name", sorted(CORPUS))
def test_cli_output_is_byte_identical_to_its_golden_copy(name, threads):
    proc = subprocess.run([sys.executable, "-m", "qpb", *CORPUS[name]], capture_output=True,
                          env={**os.environ, "OPENBLAS_NUM_THREADS": threads})
    assert proc.returncode == 0, proc.stderr.decode()
    assert proc.stdout == (DATA / name).read_bytes()
