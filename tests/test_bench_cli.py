import statistics

import numpy as np
import pytest

from cartesian_topk import InputParseError
from cartesian_topk.bench import (BenchConfig, csv_header, generate_inputs,
                                  ingest_file, render_csv, run)
from cartesian_topk.cli import main


# -- input generation ------------------------------------------------------------

def test_generate_deterministic():
    a = generate_inputs("uniform", 3, 16, 42)
    b = generate_inputs("uniform", 3, 16, 42)
    assert a == b
    c = generate_inputs("uniform", 3, 16, 43)
    assert a != c


def test_generate_uniform_mean():
    flat = [v for row in generate_inputs("uniform", 10, 10_000, 1) for v in row]
    assert abs(statistics.fmean(flat) - 0.5) < 0.01
    assert all(0.0 <= v < 1.0 for v in flat)


def test_generate_exponential_mean():
    flat = [v for row in generate_inputs("exponential", 10, 10_000, 2) for v in row]
    assert abs(statistics.fmean(flat) - 1.0) < 0.05
    assert all(v >= 0.0 for v in flat)


def test_generate_matches_pcg64():
    # documented generator identity: NumPy PCG64 seeded with the given seed
    expected = np.random.Generator(np.random.PCG64(9)).random((2, 4)).tolist()
    assert generate_inputs("uniform", 2, 4, 9) == expected


# -- file ingestion ----------------------------------------------------------------

def test_ingest_whitespace(tmp_path):
    p = tmp_path / "in.txt"
    p.write_text("1 2 3\n4 5 6\n")
    assert ingest_file(str(p)) == [[1.0, 2.0, 3.0], [4.0, 5.0, 6.0]]


def test_ingest_ragged_commas(tmp_path):
    p = tmp_path / "in.txt"
    p.write_text("1,2\n3\n")
    assert ingest_file(str(p)) == [[1.0, 2.0], [3.0]]


def test_ingest_scientific_notation(tmp_path):
    p = tmp_path / "in.txt"
    p.write_text("1e-3 2.5E2\n-7.25e0\n")
    assert ingest_file(str(p)) == [[0.001, 250.0], [-7.25]]


def test_ingest_parse_error_position(tmp_path):
    p = tmp_path / "in.txt"
    p.write_text("1 2 3\n4 x 6\n")
    with pytest.raises(InputParseError) as err:
        ingest_file(str(p))
    assert err.value.line == 2
    assert err.value.column == 3


def test_ingest_rejects_nan_inf(tmp_path):
    for bad in ("nan", "inf", "-inf"):
        p = tmp_path / "in.txt"
        p.write_text(f"1 {bad}\n")
        with pytest.raises(InputParseError):
            ingest_file(str(p))


def test_ingest_empty_file(tmp_path):
    p = tmp_path / "in.txt"
    p.write_text("\n\n")
    with pytest.raises(InputParseError):
        ingest_file(str(p))


# -- run() --------------------------------------------------------------------------

def test_run_all_six_rows_validated():
    cfg = BenchConfig(algorithm="all", m=4, n=4, k=10, seed=1, validate=True)
    report = run(cfg)
    assert len(report.rows) == 6
    assert {row["algorithm"] for row in report.rows} == {
        "soft-tensor", "soft-tree", "sort-tensor", "sort-tree",
        "fast-soft-tree", "brute-force"}
    assert all(row["validated"] == "ok" for row in report.rows)
    assert not report.violations


def test_run_determinism_modulo_wall_time():
    cfg = BenchConfig(algorithm="all", m=3, n=5, k=7, seed=9, replicates=3,
                      validate=True, stats=True)
    r1, r2 = run(cfg), run(cfg)
    for a, b in zip(r1.rows, r2.rows):
        a = {k: v for k, v in a.items() if k != "wall_time_ns"}
        b = {k: v for k, v in b.items() if k != "wall_time_ns"}
        assert a == b
    assert render_csv(r1).count("\n") == len(r1.rows) + 1  # header + rows


def test_run_root_pops_equal_k():
    cfg = BenchConfig(algorithm="sort-tree", m=8, n=8, k=17, stats=True)
    report = run(cfg)
    assert report.rows[0]["pops_level_0"] == 17


def test_run_all_skips_infeasible_oracle_row():
    cfg = BenchConfig(algorithm="all", m=16, n=8, k=6)  # 8^16 cells >> guard
    report = run(cfg)
    assert len(report.rows) == 5
    assert "brute-force" not in {row["algorithm"] for row in report.rows}


def test_run_k_too_large():
    from cartesian_topk import ParameterError
    with pytest.raises(ParameterError):
        run(BenchConfig(algorithm="sort-tree", m=2, n=2, k=5))


def test_run_validation_detects_fault(monkeypatch):
    import cartesian_topk.bench as bench

    def broken(arrays, k, alpha, stats):
        from cartesian_topk import sort_tree_select
        result = sort_tree_select(arrays, k)
        result.values[0] += 1.0  # corrupt one output value
        return result

    monkeypatch.setitem(bench._RUNNERS, "sort-tree", broken)
    report = run(BenchConfig(algorithm="sort-tree", m=3, n=3, k=4, validate=True))
    assert report.violations
    assert report.rows[0]["validated"] == "fail"


def test_csv_header_fixed_order():
    head = csv_header(1)
    assert head[:3] == ["algorithm", "m", "n"]
    assert head[-2:] == ["pops_level_0", "pops_level_1"]


def test_csv_float_formatting():
    cfg = BenchConfig(algorithm="brute-force", m=2, n=2, k=1, alpha=1.1)
    text = render_csv(run(cfg))
    assert "1.1000000000000001" in text  # 17 significant digits round-trip


# -- CLI ------------------------------------------------------------------------------

def test_cli_success(tmp_path, capsys):
    out = tmp_path / "rows.csv"
    code = main(["--algorithm", "all", "--m", "3", "--n", "3", "--k", "5",
                 "--seed", "3", "--validate", "--output", str(out)])
    assert code == 0
    lines = out.read_text().strip().splitlines()
    assert len(lines) == 7  # header + 6 rows


def test_cli_stdout(capsys):
    assert main(["--algorithm", "sort-tree", "--m", "2", "--n", "3", "--k", "2"]) == 0
    assert capsys.readouterr().out.startswith("algorithm,")


def test_cli_usage_errors(capsys):
    assert main(["--k", "0"]) == 1
    assert main(["--algorithm", "nonsense"]) == 1
    assert main(["--algorithm", "fast-soft-tree", "--alpha", "2.5"]) == 1
    assert main(["--distribution", "file"]) == 1  # missing --input-file
    assert main(["--m", "2", "--n", "2", "--k", "50"]) == 1  # k > n^m


def test_cli_parse_error(tmp_path, capsys):
    p = tmp_path / "bad.txt"
    p.write_text("1 oops\n")
    code = main(["--distribution", "file", "--input-file", str(p), "--k", "1"])
    assert code == 2
    assert "line 1" in capsys.readouterr().err


def test_cli_validation_failure_exit_code(tmp_path, monkeypatch, capsys):
    import cartesian_topk.bench as bench

    def broken(arrays, k, alpha, stats):
        from cartesian_topk import soft_tree_select
        result = soft_tree_select(arrays, k)
        result.values = result.values[:-1] + [result.values[-1] + 0.5]
        return result

    monkeypatch.setitem(bench._RUNNERS, "soft-tree", broken)
    code = main(["--algorithm", "soft-tree", "--m", "2", "--n", "4", "--k", "3",
                 "--validate"])
    assert code == 3


def test_cli_file_input_roundtrip(tmp_path):
    p = tmp_path / "arrays.txt"
    p.write_text("0.5 0.25 1.5\n2.0 0.75\n")
    out = tmp_path / "rows.csv"
    code = main(["--distribution", "file", "--input-file", str(p),
                 "--algorithm", "all", "--k", "4", "--validate",
                 "--output", str(out)])
    assert code == 0


def test_cli_guard_env(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("CARTESIAN_TOPK_GUARD", "10")
    code = main(["--algorithm", "brute-force", "--m", "4", "--n", "4", "--k", "2"])
    assert code == 1  # guard refusal surfaces as usage error
    monkeypatch.setenv("CARTESIAN_TOPK_GUARD", "not-a-number")
    assert main(["--algorithm", "sort-tree", "--m", "2", "--n", "2", "--k", "2"]) == 1


def test_cli_gnuplot_requires_output():
    assert main(["--algorithm", "sort-tree", "--m", "2", "--n", "4", "--k", "3",
                 "--emit-gnuplot", "x.gp"]) == 1


def test_cli_gnuplot_script(tmp_path):
    out = tmp_path / "rows.csv"
    script = tmp_path / "plot.gp"
    code = main(["--algorithm", "sort-tree", "--m", "2", "--n", "4", "--k", "3",
                 "--output", str(out), "--emit-gnuplot", str(script)])
    assert code == 0
    assert str(out) in script.read_text()


def test_cli_unreadable_input_file(tmp_path, capsys):
    missing = tmp_path / "missing.txt"
    code = main(["--distribution", "file", "--input-file", str(missing), "--k", "1"])
    assert code == 2
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and str(missing) in err[0]


def test_cli_unwritable_output(tmp_path, capsys):
    args = ["--algorithm", "sort-tree", "--m", "2", "--n", "4", "--k", "3"]
    bad_csv = tmp_path / "no" / "rows.csv"
    assert main(args + ["--output", str(bad_csv)]) == 1
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and str(bad_csv) in err[0]

    bad_script = tmp_path / "no" / "plot.gp"
    code = main(args + ["--output", str(tmp_path / "rows.csv"), "--emit-gnuplot", str(bad_script)])
    assert code == 1
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and str(bad_script) in err[0]
