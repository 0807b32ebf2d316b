"""The benchmark's case outputs are pinned: every workload at seed 1, and
``screen`` also at seed 2.

Each case runs in-process through ``bench/cases.py`` on a freshly loaded
builtin, from empty caches, and the SHA-256 of its output, dumped as
``bench/run.py`` dumps it (``json.dumps(output, sort_keys=True)``), must
equal the digest recorded here.  A change that moves any printed entry,
row order or float of a bench case fails this test.
"""

import hashlib
import importlib.util
import json
from pathlib import Path

import pytest

from approxsym import expr as ex
from approxsym import models

_spec = importlib.util.spec_from_file_location(
    "bench_cases", Path(__file__).parent.parent / "bench" / "cases.py")
cases = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(cases)

DIGESTS = {
    ("discover", "free-particle", 1):
        "82a22ae683cd175d0cb9bde99d58a322ea4a516928cba8eb1a99e3d9bf7bcdc8",
    ("discover", "oscillator-arbitraryF", 1):
        "15c171ef34ac7cf995f0078de5cbeeba5b14d8efd4c729ed9b1bca97424c68f5",
    ("discover", "oscillator-quadratic", 1):
        "434d88f3b4b05f1523d70fbb301362618912c286aef8e9f6a8662ea641f6767f",
    ("discover", "oscillator-cubic-inverse", 1):
        "4c9bc9b2045ce7812b68df10820a6d89d15b2454c8854470be4740ef77496f9d",
    ("discover", "coupled-system", 1):
        "5c5095c9687b1d6e62ebe33c1963f64b8528496a7eea4b4d90ccbeb29016e34e",
    ("golden", "three-body", 1):
        "00b10af20d541a7484ab5058cac44d4d55ea3760bbf5947b1756957c4b425e20",
    ("screen", "oscillator-quadratic", 1):
        "5c2da6dbbd074116c432f01cfbed27428a62250fc6e19d8046502f931e8d465c",
    ("screen", "oscillator-quadratic", 2):
        "b7a81bcaac36e230cab52f85874942843b3f6bf79c34c1e3fd79641ccf150c0d",
    ("screen", "coupled-system", 1):
        "faa16d4f7fd7d58056a33a0644810fcf8f1754289b77853b2363fda2cea9aba1",
    ("screen", "coupled-system", 2):
        "a0e0be0100a1c2b4385268a904ca37779ecb339719a94b910cae08427fcb2863",
    ("numeric", "oscillator-quadratic", 1):
        "0751224869f7e0beee70669349c663bbbc3ab45b2241fba2bb01470a75960575",
    ("numeric", "free-particle", 1):
        "4e848c8df1c415d70d83872b6ec621f998a3cc7ca03ca52064390a84a7233998",
}


def _runs():
    for workload, entries in cases.WORKLOADS.items():
        for kind, model in entries:
            for seed in ((1, 2) if workload == "screen" else (1,)):
                yield kind, model, seed


@pytest.mark.parametrize("kind, model, seed", list(_runs()))
def test_bench_case_output_is_pinned(kind, model, seed):
    ex.clear_caches()
    loaded = models.load_builtin(model)
    output = cases.CASE_KINDS[kind](loaded, cases.case_inputs(kind, loaded, seed))
    digest = hashlib.sha256(json.dumps(output, sort_keys=True).encode()).hexdigest()
    assert digest == DIGESTS[kind, model, seed]
