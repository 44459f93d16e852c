"""End-to-end payload digests: ``hcdetect.cli.main`` on small seeded inputs.

Each case writes its input, runs one CLI command and hashes the
deterministic part of every artifact (``json_payload``/``csv_payload``).
The pinned digests make any change to a payload byte show up in tier-1:
moments, p-values, the rank sort and its tie repair, the D² draws and
Lloyd fits, thresholds, masks, and the Monte Carlo draws and aggregates.
A change that moves a payload on purpose re-records the digests and says
which bytes moved and why.
"""

import hashlib
from contextlib import redirect_stdout
from pathlib import Path

import numpy as np
import pytest
from conftest import inject_spikes, skip_off_golden_platform, spaced_locations

from hcdetect import backend
from hcdetect.cli import main
from hcdetect.io import csv_payload, json_payload


def _spiky(seed: int, m: int, amplitude: float, noise_sd: float = 1.0) -> np.ndarray:
    rng = np.random.default_rng(seed)
    noise = rng.standard_normal(m) * noise_sd
    return inject_spikes(noise, spaced_locations(rng, m, 12), amplitude=amplitude)


def _write_raw(path: Path, values: np.ndarray) -> Path:
    values.astype("<f8").tofile(path)
    return path


def _write_csv(path: Path, values: np.ndarray) -> Path:
    path.write_text("".join(f"{x!r}\n" for x in values.tolist()), encoding="utf-8")
    return path


def _detect(tmp_path: Path, path: Path, fmt: str, *flags: str) -> None:
    argv = [
        "detect", "--input", str(path), "--format", fmt, "--seed", "3",
        "--out", str(tmp_path / "report.json"),
        "--masked-csv", str(tmp_path / "masked"), *flags,
    ]
    assert main(argv) == 0


def _detect_raw(tmp_path: Path, *flags: str) -> None:
    # 2e4 samples: well above EXACT_SIZE_LIMIT, so the D² draws and Lloyd run.
    path = _write_raw(tmp_path / "in.bin", _spiky(101, 20_000, 9.0))
    _detect(tmp_path, path, "raw_f64_le", *flags)


def _detect_restricted(tmp_path: Path) -> None:
    _detect_raw(tmp_path, "--restricted-ranks")


def _detect_integer(tmp_path: Path) -> None:
    # ADC-like counts: most p-values tie, so the rank order repairs ties.
    counts = np.round(_spiky(102, 20_000, 300.0, noise_sd=30.0))
    _detect(tmp_path, _write_csv(tmp_path / "in.csv", counts), "csv_single_column")


def _stats(tmp_path: Path) -> None:
    # A large offset over a small spread: the mean's last bits move sd.
    x = 1e4 + 3.0 * np.random.default_rng(103).standard_normal(10_000)
    path = _write_csv(tmp_path / "in.csv", x)
    with open(tmp_path / "stats.json", "w", encoding="utf-8") as out:
        with redirect_stdout(out):
            assert main(["stats", "--input", str(path)]) == 0


def _simulate(tmp_path: Path, *argv: str) -> None:
    out = tmp_path / "curve.csv"
    assert main([*argv, "--seed", "5", "--out", str(out)]) == 0


def _simulate_sparse(tmp_path: Path) -> None:
    _simulate(
        tmp_path, "simulate-sparse", "--variant", "both", "--eps", "0.05,0.2",
        "--mu", "1.5", "--m-grid", "100,300,1000,3000", "--replicates", "12",
    )


def _simulate_sparse_sweep(tmp_path: Path) -> None:
    # Several specs share each replicate's draws, spread over two threads.
    _simulate(
        tmp_path, "simulate-sparse", "--variant", "both", "--eps", "0.02,0.1",
        "--mu", "1.0,2.5", "--m-grid", "100,400,1600", "--replicates", "6",
        "--threads", "2",
    )


def _simulate_mean_bootstrap(tmp_path: Path) -> None:
    _simulate(
        tmp_path, "simulate-mean", "--mu", "0.3,1.0", "--scheme", "bootstrap",
        "--aggregator", "median", "--m-grid", "100,300,1000,3000",
        "--replicates", "12",
    )


CASES = {
    "detect_raw": _detect_raw,
    "detect_restricted": _detect_restricted,
    "detect_integer": _detect_integer,
    "stats": _stats,
    "simulate_sparse": _simulate_sparse,
    "simulate_sparse_sweep": _simulate_sparse_sweep,
    "simulate_mean_bootstrap": _simulate_mean_bootstrap,
}


def payload_digests(case: str, tmp_path: Path) -> dict[str, str]:
    """Run one case in ``tmp_path``; sha256 of each artifact's payload,
    by file name."""
    CASES[case](tmp_path)
    digests = {}
    for path in sorted(tmp_path.glob("*")):
        if path.suffix == ".json":
            payload = json_payload(path)
        elif path.suffix == ".csv" and path.name != "in.csv":
            payload = csv_payload(path)
        else:
            continue
        digests[path.name] = hashlib.sha256(payload).hexdigest()
    return digests


# Recorded on the golden platform (see conftest.GOLDEN_PLATFORM), pure backend.
PAYLOAD_DIGESTS = {
    "detect_integer": {
        "masked_t0.csv": "f0fc0cadc9f63e0dc886dec0192ca5a6cd5d5553d2c51e7392587c9de4b6f756",
        "masked_t1.csv": "bae7708e328778bf97098191e125cb80e56cee4b13f18a4122e289bbb0e6ac18",
        "masked_t2.csv": "edaa055ab224bc0021e55a70cf12025c31a35e267b65ed2171ffd70f77d7f3e7",
        "masked_t3.csv": "250feb477fd98c6738f0833824acb2b489e9df81d7310d25dbc1cc15de7d240f",
        "report.json": "ee308ce669d2e44a9b11b7b6d4f9d1fabbcf2e335be1d0dc8fd7edca03e041a4",
    },
    "detect_raw": {
        "masked_t0.csv": "b85bb471f4d62fdd39bd707852fee953c56fc33f30a598fe4d88563924a8c718",
        "masked_t1.csv": "c88e4f5352843a9bfc2cdccf638261901e3b4af6f6350277bbffdd51313e0b8f",
        "masked_t2.csv": "804e4325cd191b458636a9d256b9266492cce82a89d48ac35d09529ce09da297",
        "masked_t3.csv": "a5e28f86e77181b250ccf3d14857b777f63ed2f483b03a475d07ad2a1513f2f5",
        "masked_t4.csv": "3a3cfd9ddc36a17aa23d23489c52f039f8cf5cd1e8b0bde861597a49b6f7a68c",
        "masked_t5.csv": "4107a6027df8746b64f485679cb55de66e3292d17f8b2f132fdeb4368d7d19a5",
        "masked_t6.csv": "e5abe0d4e8984d575bf1318af4671c711bacb898f673e2f23eaeba0ad5f5474f",
        "masked_t7.csv": "303f8cd7eaaef8c1437d340676705ed9093589f02fa767f1abb25a2227c9b12b",
        "report.json": "2bb3d39113e331ee3099d36e7b748a50173d7735b912b6a5077ce41881909e94",
    },
    "detect_restricted": {
        "masked_t0.csv": "b85bb471f4d62fdd39bd707852fee953c56fc33f30a598fe4d88563924a8c718",
        "masked_t1.csv": "c88e4f5352843a9bfc2cdccf638261901e3b4af6f6350277bbffdd51313e0b8f",
        "masked_t2.csv": "804e4325cd191b458636a9d256b9266492cce82a89d48ac35d09529ce09da297",
        "masked_t3.csv": "a5e28f86e77181b250ccf3d14857b777f63ed2f483b03a475d07ad2a1513f2f5",
        "masked_t4.csv": "3a3cfd9ddc36a17aa23d23489c52f039f8cf5cd1e8b0bde861597a49b6f7a68c",
        "masked_t5.csv": "4107a6027df8746b64f485679cb55de66e3292d17f8b2f132fdeb4368d7d19a5",
        "masked_t6.csv": "e5abe0d4e8984d575bf1318af4671c711bacb898f673e2f23eaeba0ad5f5474f",
        "masked_t7.csv": "303f8cd7eaaef8c1437d340676705ed9093589f02fa767f1abb25a2227c9b12b",
        "report.json": "874471981e4c4a7612548288c04479b3824c5df29db777d38e442a619e7bd4d4",
    },
    "simulate_mean_bootstrap": {
        "curve.csv": "4c7be99041de199444d6fb5a2eb1b5ac61a0bf55d6563d02c57c4fa51e2ef967",
        "curve.json": "ea831aca6672775a96677e2f170c304a290d810baab4dd25fafc051567af142d",
    },
    "simulate_sparse": {
        "curve.csv": "494646d7356a1f376b699a16b8901bbd4e12f801e8a42eaf5133ca524c5be100",
        "curve.json": "23c089c06939bbeab1c179b17029ad3f031febc1c0fc25cbd860fbcca6660a3d",
    },
    "simulate_sparse_sweep": {
        "curve.csv": "bd52d8fe6944f29c332935e8e2e418cac7f3fcb2f9bc7fb9aecf406ba0829782",
        "curve.json": "9b6ecfb5b0de80ff9d8322545de1db56876942b4f7a20275308b3e34d1bffcae",
    },
    "stats": {
        "stats.json": "e4e2ade0d30cddd2e077e55f066e975a084decc4e5914d11c7d38cf8e6175fd3",
    },
}


@pytest.mark.parametrize("case", sorted(CASES))
def test_payload_digests(case, tmp_path):
    skip_off_golden_platform()
    if backend.backend_name() != "pure":
        pytest.skip("the digests were recorded on the pure backend")
    assert payload_digests(case, tmp_path) == PAYLOAD_DIGESTS[case]
