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
    "weyl_n_trunc_9_seed_7.json": ("verify", "weyl", "--n-trunc", "9", "--seed", "7",
                                   "--format", "json"),
    "weyl_hbar_0.37_n_trunc_256_seed_11.json": ("verify", "weyl", "--hbar", "0.37", "--n-trunc",
                                                "256", "--seed", "11", "--format", "json"),
    "ladder_n_trunc_512.json": ("verify", "ladder", "--n-trunc", "512", "--format", "json"),
    "ladder_hbar_0.3_omega_2_n_trunc_200.json": ("verify", "ladder", "--hbar", "0.3", "--omega",
                                                 "2.0", "--n-trunc", "200", "--format", "json"),
    "fourier_n_points_1024.json": ("verify", "fourier", "--n-points", "1024", "--format", "json"),
    "poisson_n_points_1024.json": ("verify", "poisson", "--n-points", "1024", "--format", "json"),
    "uncertainty_n_points_1024.json": ("verify", "uncertainty", "--n-points", "1024",
                                       "--format", "json"),
    "kk_n_points_8192_half_extent_128.json": ("verify", "kk", "--n-points", "8192",
                                              "--half-extent", "128", "--format", "json"),
    "all_hbar_2_seed_5.json": ("verify", "all", "--hbar", "2", "--seed", "5", "--format", "json"),
}


@pytest.mark.parametrize("threads", ["1", "2"])
@pytest.mark.parametrize("name", sorted(CORPUS))
def test_cli_output_is_byte_identical_to_its_golden_copy(name, threads):
    proc = subprocess.run([sys.executable, "-m", "qpb", *CORPUS[name]], capture_output=True,
                          env={**os.environ, "OPENBLAS_NUM_THREADS": threads})
    assert proc.returncode == 0, proc.stderr.decode()
    assert proc.stdout == (DATA / name).read_bytes()
