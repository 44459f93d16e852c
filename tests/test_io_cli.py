"""Ingestion formats, artifact schemas, manifests, CLI behavior."""

import hashlib
import json
import math

import jsonschema
import numpy as np
import pytest

from conftest import inject_spikes, spaced_locations
from hcdetect import TimeSeries, cli, detect, kurtosis, mask, standardize
from hcdetect.cli import main
from hcdetect.detector import Segment
from hcdetect.errors import NonFiniteError, ParseError, ValidationError
from hcdetect.io import (
    InputSpec,
    RunManifest,
    _manifest_comment,
    _parse_csv,
    csv_payload,
    dump_json,
    fmt17,
    ingest,
    json_payload,
    sha256_of,
    write_masked_csv,
    write_raw_f64,
)


def strip_every_cell_parse(text: str, column: int) -> np.ndarray:
    """The CSV parser that strips every cell and checks finiteness with
    numpy: the oracle for ``_parse_csv``, values and errors alike."""
    values = []
    first_data_line = True
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line:
            continue
        cells = [c.strip() for c in line.split(",")]
        if column >= len(cells):
            raise ParseError(
                f"line {lineno}: expected at least {column + 1} columns,"
                f" found {len(cells)}",
                line=lineno,
            )
        try:
            value = float(cells[column])
        except ValueError:
            if first_data_line:
                first_data_line = False
                continue
            raise ParseError(
                f"line {lineno}: cannot parse {cells[column]!r} as a number",
                line=lineno,
            ) from None
        if not np.isfinite(value):
            raise NonFiniteError(
                f"line {lineno}: non-finite value {cells[column]!r}", index=lineno
            )
        values.append(value)
        first_data_line = False
    return np.asarray(values, dtype=np.float64)


def per_sample_masked_csv(path, masked: TimeSeries, manifest) -> None:
    """The masked-CSV writer that formats every sample: the oracle for
    ``write_masked_csv``."""
    lines = [_manifest_comment(manifest), "value\n"]
    lines.extend(fmt17(v) + "\n" for v in masked.values)
    path.write_text("".join(lines), encoding="utf-8")

def _schema(name):
    import hcdetect

    from pathlib import Path

    path = Path(hcdetect.__file__).parent / "schemas" / name
    return json.loads(path.read_text())


def strict_json(text: str):
    """json.loads that rejects NaN, Infinity and -Infinity."""

    def reject(token):
        raise ValueError(f"non-standard JSON constant {token}")

    return json.loads(text, parse_constant=reject)


class TestIngest:
    def test_single_column_csv(self, tmp_path):
        path = tmp_path / "x.csv"
        path.write_text("1.0\n2.0\n3.0\n")
        series = ingest(InputSpec(path=path))
        np.testing.assert_array_equal(series.values, [1.0, 2.0, 3.0])

    def test_header_auto_detected(self, tmp_path):
        path = tmp_path / "x.csv"
        path.write_text("value\n1.0\n2.0\n3.0\n")
        series = ingest(InputSpec(path=path))
        np.testing.assert_array_equal(series.values, [1.0, 2.0, 3.0])

    def test_time_value_keeps_value_column(self, tmp_path):
        path = tmp_path / "x.csv"
        path.write_text("t,v\n0.0,5.0\n0.1,6.0\n0.2,7.0\n")
        series = ingest(InputSpec(path=path, format="csv_time_value"))
        np.testing.assert_array_equal(series.values, [5.0, 6.0, 7.0])

    def test_channel_selects_column(self, tmp_path):
        path = tmp_path / "x.csv"
        path.write_text("1,10,100\n2,20,200\n3,30,300\n")
        series = ingest(InputSpec(path=path, channel=1))
        np.testing.assert_array_equal(series.values, [10.0, 20.0, 30.0])

    def test_raw_f64_le(self, tmp_path):
        path = tmp_path / "x.bin"
        np.array([1.0, 2.0, 3.0]).astype("<f8").tofile(path)
        series = ingest(InputSpec(path=path, format="raw_f64_le"))
        np.testing.assert_array_equal(series.values, [1.0, 2.0, 3.0])

    def test_raw_round_trip_bit_exact(self, tmp_path):
        rng = np.random.default_rng(0)
        values = rng.standard_normal(257)
        path = tmp_path / "x.bin"
        write_raw_f64(path, values)
        series = ingest(InputSpec(path=path, format="raw_f64_le"))
        np.testing.assert_array_equal(series.values, values)

    def test_raw_size_not_multiple_of_8_is_parse_error(self, tmp_path):
        path = tmp_path / "x.bin"
        path.write_bytes(np.arange(1000.0).astype("<f8").tobytes() + b"\x01\x02\x03")
        with pytest.raises(ParseError, match="8003 bytes"):
            ingest(InputSpec(path=path, format="raw_f64_le"))

    @pytest.mark.parametrize("bad,index", [(math.nan, 5), (-math.inf, 0)])
    def test_raw_non_finite_names_the_sample(self, tmp_path, bad, index):
        values = np.arange(20.0)
        values[index] = bad
        path = tmp_path / "x.bin"
        write_raw_f64(path, values)
        with pytest.raises(NonFiniteError) as err:
            ingest(InputSpec(path=path, format="raw_f64_le"))
        assert err.value.index == index
        assert f"non-finite sample {bad} at index {index}" in str(err.value)

    def test_nan_names_the_row(self, tmp_path):
        path = tmp_path / "x.csv"
        path.write_text("1.0\n2.0\nnan\n4.0\n")
        with pytest.raises(NonFiniteError) as err:
            ingest(InputSpec(path=path))
        assert "line 3" in str(err.value)

    def test_garbage_mid_file_is_parse_error(self, tmp_path):
        path = tmp_path / "x.csv"
        path.write_text("1.0\n2.0\npotato\n")
        with pytest.raises(ParseError) as err:
            ingest(InputSpec(path=path))
        assert err.value.line == 3

    @pytest.mark.parametrize("header", ["", "value\n"])
    def test_byte_order_mark_keeps_first_sample(self, tmp_path, header):
        path = tmp_path / "x.csv"
        path.write_bytes(("\ufeff" + header + "1.5\n2.0\n3.0\n4.5\n").encode("utf-8"))
        series = ingest(InputSpec(path=path))
        np.testing.assert_array_equal(series.values, [1.5, 2.0, 3.0, 4.5])

    def test_channel_is_rejected_for_raw_input(self, tmp_path):
        with pytest.raises(ValidationError, match="raw_f64_le"):
            InputSpec(path=tmp_path / "x.bin", format="raw_f64_le", channel=0)

    def test_missing_column(self, tmp_path):
        path = tmp_path / "x.csv"
        path.write_text("1.0\n2.0\n")
        with pytest.raises(ParseError):
            ingest(InputSpec(path=path, channel=2))


def _outcome(parse, text, column):
    try:
        return ("ok", parse(text, column).tobytes())
    except (ParseError, NonFiniteError) as exc:
        return (type(exc).__name__, str(exc), getattr(exc, "line", None),
                getattr(exc, "index", None))


class TestParseCsvMatchesStripEveryCell:
    @pytest.mark.parametrize(
        "text,column",
        [
            (" 1.5 , 2.5 \n\t3.5,\t4.5\t\n 5 ,6\n", 0),
            (" 1.5 , 2.5 \n\t3.5,\t4.5\t\n 5 ,6\n", 1),
            ("time , value\n0, 1e4\n1 ,-2.5e-3 \n\n2,  7\n", 1),
            ("value\n1\n2\n", 0),
            ("x\ny\n1\n", 0),
            ("1.0\n bad \n3.0\n", 0),
            ("bad\n2.0\n3.0\n", 0),
            ("1.0, nan \n2.0,3.0\n", 1),
            ("1.0\n inf\n", 0),
            ("1.0\n2.0\n-Infinity \n", 0),
            ("header\n NaN\n", 0),
            ("1,2\n3\n", 1),
            ("1,2,3\n4,5\n", 2),
            (" 1_000 ,\u20032\u2003\n3,4\n", 1),
            ("1,\n2,3\n", 1),
        ],
    )
    def test_values_and_errors_match(self, text, column):
        assert _outcome(_parse_csv, text, column) == _outcome(
            strip_every_cell_parse, text, column
        )

    def test_header_then_bad_second_line_names_line_2(self):
        with pytest.raises(ParseError) as err:
            _parse_csv("t,v\n0, oops \n", 1)
        assert err.value.line == 2
        assert "'oops'" in str(err.value)

    def test_bad_first_line_is_the_header(self):
        np.testing.assert_array_equal(_parse_csv(" oops \n1\n2\n", 0), [1.0, 2.0])

    def test_non_finite_index_is_the_line(self):
        with pytest.raises(NonFiniteError) as err:
            _parse_csv("v\n1\n -inf \n", 0)
        assert err.value.index == 3
        assert "'-inf'" in str(err.value)

    def test_too_few_columns(self):
        with pytest.raises(ParseError) as err:
            _parse_csv("1,2\n3\n", 1)
        assert err.value.line == 2
        assert "expected at least 2 columns, found 1" in str(err.value)


def _masked(values, spans):
    series = TimeSeries(values=values)
    segments = [Segment(start=a, end=b, peak_index=a, peak_hc=0.0) for a, b in spans]
    return mask(series, segments)


class TestMaskedCsvMatchesPerSampleWriter:
    @pytest.mark.parametrize(
        "spans",
        [
            [],
            [(0, 12)],
            [(480, 499)],
            [(0, 0), (499, 499)],
            [(100, 150), (151, 200)],
            [(0, 499)],
            [(3, 40), (41, 41), (300, 420)],
        ],
        ids=["none", "head", "tail", "single_ends", "adjacent", "all", "mixed"],
    )
    def test_bytes_match(self, tmp_path, spans):
        values = np.random.default_rng(len(spans)).standard_normal(500) * 1e3
        # signed zeros, the smallest subnormal and the most negative double,
        # inside the segments of most cases and at both ends of the series
        for i, v in zip(
            (0, 3, 40, 41, 150, 151, 499),
            (-0.0, 0.0, 5e-324, -1.7976931348623157e308, -0.0, 0.0, -0.0),
        ):
            values[i] = v
        masked = _masked(values, spans)
        manifest = RunManifest.create("detect", {"window": 50}, 0)
        write_masked_csv(tmp_path / "got.csv", masked, manifest)
        per_sample_masked_csv(tmp_path / "want.csv", masked, manifest)
        got = (tmp_path / "got.csv").read_bytes()
        assert got == (tmp_path / "want.csv").read_bytes()
        if spans and spans[0][0] == 0:
            assert csv_payload(tmp_path / "got.csv").splitlines()[1] == b"-0"


def _write_spiked_csv(tmp_path, seed=42, m=100_000, count=10):
    rng = np.random.default_rng(seed)
    noise = rng.standard_normal(m)
    locs = spaced_locations(rng, m, count)
    data = inject_spikes(noise, locs)
    path = tmp_path / "spiked.csv"
    path.write_text("".join(f"{float(v)!r}\n" for v in data))
    return path, locs


def _write_noise_csv(tmp_path, m):
    path = tmp_path / "noise.csv"
    rng = np.random.default_rng(3)
    path.write_text("".join(f"{float(v)!r}\n" for v in rng.standard_normal(m)))
    return path


def _record_calls(monkeypatch, name: str) -> list:
    """Replace cli.<name> with a stub that records its calls."""
    calls = []
    monkeypatch.setattr(cli, name, lambda *args, **kwargs: calls.append(args))
    return calls


class TestCliDetect:
    def test_report_schema_and_recovery(self, tmp_path):
        path, locs = _write_spiked_csv(tmp_path)
        out = tmp_path / "report.json"
        code = main(
            ["detect", "--input", str(path), "--out", str(out), "--seed", "0"]
        )
        assert code == 0
        doc = json.loads(out.read_text())
        jsonschema.validate(doc, _schema("report.v1.json"))
        assert doc["hc"]["reject_normality"] is True
        smallest = doc["thresholds"][0]
        assert len(smallest["segments"]) == len(locs)
        for loc in locs:
            assert any(
                seg["start"] <= loc <= seg["end"] for seg in smallest["segments"]
            )

    def test_min_threshold_override_gives_empty_segments(self, tmp_path, capsys):
        rng = np.random.default_rng(1)
        path = tmp_path / "noise.csv"
        path.write_text("".join(f"{float(v)!r}\n" for v in rng.standard_normal(5000)))
        code = main(
            ["detect", "--input", str(path), "--min-threshold", "1e30"]
        )
        assert code == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["thresholds"][0]["value"] == 1e30
        assert doc["thresholds"][0]["segments"] == []

    def test_masked_csv_written(self, tmp_path):
        path, _ = _write_spiked_csv(tmp_path, m=20_000, count=3)
        out = tmp_path / "report.json"
        prefix = tmp_path / "masked"
        code = main(
            [
                "detect", "--input", str(path), "--out", str(out),
                "--masked-csv", str(prefix),
            ]
        )
        assert code == 0
        doc = json.loads(out.read_text())
        first = tmp_path / "masked_t0.csv"
        assert first.exists()
        body = csv_payload(first).decode().splitlines()
        assert body[0] == "value"
        values = np.array([float(v) for v in body[1:]])
        assert values.size == doc["stats"]["m"]
        covered = sum(
            seg["end"] - seg["start"] + 1
            for seg in doc["thresholds"][0]["segments"]
        )
        assert np.count_nonzero(values) <= covered

    def test_restricted_ranks_too_few_points_exits_2(self, tmp_path, capsys):
        path = tmp_path / "short.csv"
        path.write_text("".join(f"{v!r}\n" for v in (np.arange(12.0) ** 2).tolist()))
        code = main(["detect", "--input", str(path), "--restricted-ranks"])
        assert code == 2
        err = capsys.readouterr().err
        assert "k_max=10" in err and "6 HC values" in err

    @pytest.mark.parametrize("m", [300, 2000])
    def test_negative_seed_exits_2(self, tmp_path, capsys, m):
        # 300 samples cluster 150 HC values on the exact path, which uses
        # no seed; 2000 samples cluster 1000 with seeded restarts.
        path = _write_noise_csv(tmp_path, m)
        code = main(["detect", "--input", str(path), "--seed", "-1"])
        assert code == 2
        assert "seed must be non-negative" in capsys.readouterr().err

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    def test_non_finite_min_threshold_exits_2(self, tmp_path, capsys, value):
        path = _write_noise_csv(tmp_path, 500)
        code = main(["detect", "--input", str(path), f"--min-threshold={value}"])
        assert code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "min_threshold must be finite" in captured.err

    def test_report_is_strict_json(self, tmp_path, capsys):
        path = _write_noise_csv(tmp_path, 500)
        assert main(["detect", "--input", str(path), "--min-threshold", "2.5"]) == 0
        doc = strict_json(capsys.readouterr().out)
        assert doc["thresholds"][0]["value"] == 2.5

    def test_non_finite_threshold_exits_2(self, tmp_path, capsys):
        # before the check, this run wrote "value": Infinity into the report
        path = _write_noise_csv(tmp_path, 5000)
        out = tmp_path / "report.json"
        code = main(
            ["detect", "--input", str(path), "--eq1-factor", "1e308", "--out", str(out)]
        )
        assert code == 2
        assert "is not finite" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "outputs",
        [
            ["--out", "missing/report.json"],
            ["--out", "report.json", "--masked-csv", "missing/masked"],
        ],
    )
    def test_missing_output_directory_exits_1_before_ingest(
        self, tmp_path, capsys, monkeypatch, outputs
    ):
        # before the check, the second run wrote report.json and then
        # failed on the masked CSV, leaving a partial result behind
        path = _write_noise_csv(tmp_path, 500)
        calls = _record_calls(monkeypatch, "ingest")
        monkeypatch.chdir(tmp_path)
        before = sorted(tmp_path.iterdir())
        code = main(["detect", "--input", str(path), *outputs])
        assert code == 1
        assert capsys.readouterr().err.startswith("hcdetect: [Errno 2]")
        assert calls == []
        assert sorted(tmp_path.iterdir()) == before

    def test_missing_file_exits_1(self, tmp_path, capsys):
        code = main(["detect", "--input", str(tmp_path / "absent.csv")])
        assert code == 1
        assert capsys.readouterr().err != ""

    def test_constant_input_exits_2(self, tmp_path, capsys):
        path = tmp_path / "const.csv"
        path.write_text("".join("5.0\n" for _ in range(100)))
        code = main(["detect", "--input", str(path)])
        assert code == 2
        assert "constant" in capsys.readouterr().err

    @pytest.mark.parametrize("debug", [None, "1"])
    def test_unexpected_error_exits_1_with_traceback_only_in_debug(
        self, tmp_path, capsys, monkeypatch, debug
    ):
        def boom(args):
            raise RuntimeError("kaboom")

        monkeypatch.setattr(cli, "_cmd_detect", boom)
        if debug is None:
            monkeypatch.delenv("HCDETECT_DEBUG", raising=False)
        else:
            monkeypatch.setenv("HCDETECT_DEBUG", debug)
        code = main(["detect", "--input", str(tmp_path / "unused.csv")])
        assert code == 1
        err = capsys.readouterr().err
        assert err.endswith("hcdetect: internal error: kaboom\n")
        if debug is None:
            assert "Traceback" not in err
        else:
            assert err.startswith("Traceback (most recent call last):")
            assert "RuntimeError: kaboom" in err


class TestCliSimulate:
    def test_mean_sweep_finds_strong_signals(self, tmp_path):
        out = tmp_path / "curve.csv"
        code = main(
            [
                "simulate-mean", "--mu", "0.5,1.0",
                "--m-grid", "geom:100:10000:6",
                "--replicates", "20", "--seed", "0", "--out", str(out),
            ]
        )
        assert code == 0
        rows = csv_payload(out).decode().splitlines()
        assert rows[0] == "mu,m_star,found"
        assert len(rows) == 3
        assert all(row.endswith("true") for row in rows[1:])
        doc = json.loads(out.with_suffix(".json").read_text())
        jsonschema.validate(doc, _schema("curve.v1.json"))

    @pytest.mark.parametrize("grid", ["geom:0:100:5", "geom:100:1000:-2"])
    def test_geometric_grid_out_of_domain_exits_2(self, tmp_path, capsys, grid):
        code = main(
            [
                "simulate-mean", "--mu", "1.0", "--m-grid", grid,
                "--replicates", "2", "--out", str(tmp_path / "c.csv"),
            ]
        )
        assert code == 2
        assert "geometric grid" in capsys.readouterr().err

    def test_eps_zero_exits_2(self, tmp_path, capsys):
        code = main(
            [
                "simulate-sparse", "--eps", "0.0", "--mu", "1.0",
                "--m-grid", "100,200", "--replicates", "2",
                "--out", str(tmp_path / "c.csv"),
            ]
        )
        assert code == 2
        assert "eps" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["simulate-mean", "simulate-sparse"])
    def test_negative_seed_exits_2(self, tmp_path, capsys, command):
        signal = ["--mu", "1.0"] if command == "simulate-mean" else [
            "--eps", "0.1", "--mu", "1.0"
        ]
        code = main(
            [
                command, *signal, "--m-grid", "100,200", "--replicates", "2",
                "--seed", "-1", "--out", str(tmp_path / "c.csv"),
            ]
        )
        assert code == 2
        assert "seed must be non-negative" in capsys.readouterr().err
        assert not (tmp_path / "c.csv").exists()

    @pytest.mark.parametrize("command", ["simulate-mean", "simulate-sparse"])
    def test_missing_output_directory_exits_1_before_the_sweep(
        self, tmp_path, capsys, monkeypatch, command
    ):
        signal = ["--mu", "1.0"] if command == "simulate-mean" else [
            "--eps", "0.1", "--mu", "1.0"
        ]
        calls = _record_calls(monkeypatch, command.replace("simulate-", "boundary_grid_"))
        code = main(
            [
                command, *signal, "--m-grid", "100,200", "--replicates", "2",
                "--out", str(tmp_path / "missing" / "c.csv"),
            ]
        )
        assert code == 1
        assert capsys.readouterr().err.startswith("hcdetect: [Errno 2]")
        assert calls == []
        assert list(tmp_path.iterdir()) == []

    def test_byte_identical_reruns_and_thread_invariance(self, tmp_path):
        args = [
            "simulate-sparse", "--eps", "0.05,0.2", "--mu", "1.0",
            "--m-grid", "100,300,1000", "--replicates", "10", "--seed", "11",
        ]
        paths = [tmp_path / f"c{i}.csv" for i in range(3)]
        assert main(args + ["--out", str(paths[0])]) == 0
        assert main(args + ["--out", str(paths[1])]) == 0
        assert main(args + ["--out", str(paths[2]), "--threads", "4"]) == 0
        payloads = [csv_payload(p) for p in paths]
        assert payloads[0] == payloads[1] == payloads[2]
        json_payloads = [json_payload(p.with_suffix(".json")) for p in paths]
        assert json_payloads[0] == json_payloads[1] == json_payloads[2]

    def test_variant_selection(self, tmp_path):
        out = tmp_path / "c.csv"
        code = main(
            [
                "simulate-sparse", "--eps", "0.1", "--mu", "2.0",
                "--variant", "mixture", "--m-grid", "100,300",
                "--replicates", "4", "--out", str(out),
            ]
        )
        assert code == 0
        rows = csv_payload(out).decode().splitlines()
        assert len(rows) == 2
        assert rows[1].startswith("sparse_mixture")


class TestCliStats:
    def test_normal_sample_summary(self, tmp_path, capsys):
        rng = np.random.default_rng(2)
        path = tmp_path / "normal.bin"
        write_raw_f64(path, rng.standard_normal(200_000))
        code = main(["stats", "--input", str(path), "--format", "raw_f64_le"])
        assert code == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["kurtosis_raw"] == pytest.approx(3.0, abs=0.05)
        assert doc["kurtosis_excess"] == pytest.approx(doc["kurtosis_raw"] - 3.0)
        assert doc["m"] == 200_000
        assert 0.3 < doc["ratio"] < 3.0
        assert doc["manifest"]["input_sha256"]

    def test_heavy_tailed_sample_kurtosis(self, tmp_path, capsys):
        rng = np.random.default_rng(3)
        path = tmp_path / "laplace.bin"
        write_raw_f64(path, rng.laplace(size=100_000))
        code = main(["stats", "--input", str(path), "--format", "raw_f64_le"])
        assert code == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["kurtosis_raw"] > 4.0  # analytic Laplace kurtosis is 6

    @pytest.mark.parametrize("command", ["stats", "detect"])
    def test_sample_rate_is_not_an_option(self, tmp_path, command):
        path = tmp_path / "x.csv"
        path.write_text("1.0\n2.0\n3.0\n")
        with pytest.raises(SystemExit) as exit_:
            main([command, "--input", str(path), "--sample-rate", "30000"])
        assert exit_.value.code == 2

    def test_constant_exits_2(self, tmp_path):
        path = tmp_path / "const.csv"
        path.write_text("".join("1.5\n" for _ in range(50)))
        assert main(["stats", "--input", str(path)]) == 2

    def test_truncated_raw_exits_2(self, tmp_path, capsys):
        path = tmp_path / "x.bin"
        write_raw_f64(path, np.random.default_rng(4).standard_normal(1000))
        with open(path, "ab") as fh:
            fh.write(b"\x01\x02\x03")
        code = main(["stats", "--input", str(path), "--format", "raw_f64_le"])
        assert code == 2
        assert "multiple of 8" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["stats", "detect"])
    @pytest.mark.parametrize("bad,index", [(math.nan, 5), (-math.inf, 0)])
    def test_raw_non_finite_exits_2(self, tmp_path, capsys, command, bad, index):
        values = np.random.default_rng(4).standard_normal(1000)
        values[index] = bad
        path = tmp_path / "x.bin"
        write_raw_f64(path, values)
        argv = [command, "--input", str(path), "--format", "raw_f64_le"]
        if command == "detect":
            argv += ["--out", str(tmp_path / "report.json")]
        assert main(argv) == 2
        assert f"at index {index}" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["stats", "detect"])
    @pytest.mark.parametrize(
        "values", [[1e200, -1e200, 0.0, 1.0], [1.7e308, 1.7e308, -1.7e308]]
    )
    def test_moment_overflow_exits_2(self, tmp_path, capsys, command, values):
        path = tmp_path / "x.bin"
        write_raw_f64(path, np.array(values))
        argv = [command, "--input", str(path), "--format", "raw_f64_le"]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "moments of the series overflow float64" in captured.err

    @pytest.mark.parametrize("command", ["stats", "detect"])
    def test_channel_with_raw_input_exits_2(self, tmp_path, capsys, command):
        path = tmp_path / "x.bin"
        write_raw_f64(path, np.random.default_rng(4).standard_normal(1000))
        argv = [command, "--input", str(path), "--format", "raw_f64_le"]
        assert main(argv + ["--channel", "3"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "raw_f64_le" in captured.err

    def test_mean_sd_are_the_compensated_moments(self, tmp_path, capsys):
        # with this seed np.mean and np.std both differ from the
        # compensated moments in the last bits
        x = np.random.default_rng(10).standard_normal(100_000) * 3.0 + 1e4
        path = tmp_path / "x.bin"
        write_raw_f64(path, x)
        std = standardize(TimeSeries(values=x))
        assert std.source_mean == math.fsum(x) / x.size
        moments = (std.source_mean, std.source_sd)

        argv = ["--input", str(path), "--format", "raw_f64_le"]
        assert main(["stats"] + argv) == 0
        doc = json.loads(capsys.readouterr().out)
        assert (doc["mean"], doc["sd"]) == moments

        out = tmp_path / "report.json"
        assert main(["detect"] + argv + ["--out", str(out)]) == 0
        stats = json.loads(out.read_text())["stats"]
        assert (stats["mean"], stats["sd"]) == moments

    def test_kurtosis_fields_equal_kurtosis_of_the_series(self, tmp_path, capsys):
        x = np.random.default_rng(16).standard_normal(50_000) * 3.0 + 1e4
        path = tmp_path / "x.bin"
        write_raw_f64(path, x)
        report = kurtosis(TimeSeries(values=x))
        assert main(["stats", "--input", str(path), "--format", "raw_f64_le"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert (doc["mean"], doc["sd"], doc["kurtosis_raw"], doc["kurtosis_excess"]) == (
            report.mean, report.sd, report.raw, report.excess
        )

    def test_stats_detect_and_kurtosis_agree_on_criterion_4_seed_16(
        self, tmp_path, capsys
    ):
        # the criterion-4 input whose kurtosis numpy's ``** 4`` moved by
        # one ulp
        path, _ = _write_spiked_csv(tmp_path, seed=16)
        series = ingest(InputSpec(path=path))
        want = kurtosis(series)
        assert detect(series).kurtosis == want
        assert main(["stats", "--input", str(path)]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert (doc["mean"], doc["sd"], doc["kurtosis_raw"], doc["kurtosis_excess"]) == (
            want.mean, want.sd, want.raw, want.excess
        )


class TestStrictJsonArtifacts:
    def test_dump_json_rejects_non_finite_numbers(self):
        for bad in (math.nan, math.inf, -math.inf):
            with pytest.raises(ValueError):
                dump_json({"value": bad})

    @pytest.mark.parametrize(
        "argv",
        [
            ["detect"],
            ["detect", "--restricted-ranks", "--k-max", "4", "--min-threshold", "2.5"],
            ["stats"],
        ],
        ids=["detect", "detect-restricted", "stats"],
    )
    def test_series_commands(self, tmp_path, capsys, argv):
        path, _ = _write_spiked_csv(tmp_path, m=5000, count=2)
        assert main(argv + ["--input", str(path)]) == 0
        doc = strict_json(capsys.readouterr().out)
        assert doc["manifest"]["command"] == argv[0]

    @pytest.mark.parametrize(
        "argv",
        [
            ["simulate-mean", "--mu", "0.0,1.0"],
            ["simulate-sparse", "--eps", "0.05,0.2", "--mu", "1.0,3.0"],
        ],
        ids=["simulate-mean", "simulate-sparse"],
    )
    def test_simulate_commands(self, tmp_path, argv):
        out = tmp_path / "curve.csv"
        code = main(
            argv + ["--m-grid", "100,300,1000", "--replicates", "4", "--out", str(out)]
        )
        assert code == 0
        doc = strict_json(out.with_suffix(".json").read_text())
        assert doc["manifest"]["command"] == argv[0]


class TestManifest:
    @pytest.mark.parametrize("size", [0, 5, 3 * (1 << 20) + 5])
    def test_sha256_matches_whole_file_digest(self, tmp_path, size):
        path = tmp_path / "x.bin"
        path.write_bytes(np.random.default_rng(size).bytes(size))
        assert sha256_of(path) == hashlib.sha256(path.read_bytes()).hexdigest()

    def test_embedded_in_report_and_rerun_reproduces_payload(self, tmp_path):
        path, _ = _write_spiked_csv(tmp_path, m=20_000, count=3)
        out1 = tmp_path / "r1.json"
        out2 = tmp_path / "r2.json"
        argv = ["detect", "--input", str(path), "--seed", "3"]
        assert main(argv + ["--out", str(out1)]) == 0
        assert main(argv + ["--out", str(out2)]) == 0
        doc = json.loads(out1.read_text())
        assert doc["manifest"]["command"] == "detect"
        assert doc["manifest"]["config"]["window"] == 50
        assert json_payload(out1) == json_payload(out2)
