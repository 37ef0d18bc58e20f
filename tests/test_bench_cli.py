import csv
import io
import os
import re
import statistics
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import cartesian_topk
from cartesian_topk import ContractViolation, InputParseError, ParameterError, brute_force_select
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
    rows = run(cfg)
    assert len(rows) == 6
    assert {row["algorithm"] for row in rows} == {
        "soft-tensor", "soft-tree", "sort-tensor", "sort-tree",
        "fast-soft-tree", "brute-force"}
    assert all(row["validated"] == "ok" for row in rows)


def test_run_determinism_modulo_wall_time():
    cfg = BenchConfig(algorithm="all", m=3, n=5, k=7, seed=9, replicates=3,
                      validate=True, stats=True)
    r1, r2 = run(cfg), run(cfg)
    assert len(r1) == len(r2) == 18
    for a, b in zip(r1, r2):
        a = {k: v for k, v in a.items() if k != "wall_time_ns"}
        b = {k: v for k, v in b.items() if k != "wall_time_ns"}
        assert a == b
    assert render_csv(r1).count("\n") == len(r1) + 1  # header + rows


def test_run_root_pops_equal_k():
    cfg = BenchConfig(algorithm="sort-tree", m=8, n=8, k=17, stats=True)
    rows = run(cfg)
    assert rows[0]["pops_level_0"] == 17


def test_run_all_skips_infeasible_oracle_row():
    cfg = BenchConfig(algorithm="all", m=16, n=8, k=6)  # 8^16 cells >> guard
    rows = run(cfg)
    assert len(rows) == 5
    assert "brute-force" not in {row["algorithm"] for row in rows}
    assert [row["validated"] for row in rows] == [""] * 5  # not asked to validate
    # asked to validate, every row says it could not be checked, and none failed
    rows = run(BenchConfig(algorithm="all", m=16, n=8, k=6, validate=True))
    assert [row["validated"] for row in rows] == ["skipped"] * 5


def test_run_k_too_large():
    with pytest.raises(ParameterError):
        run(BenchConfig(algorithm="sort-tree", m=2, n=2, k=5))


def test_run_reads_input_file_once(tmp_path, monkeypatch):
    import cartesian_topk.bench as bench
    p = tmp_path / "in.txt"
    p.write_text("1 2 3\n4 5\n")
    calls = []

    def counting(path):
        calls.append(path)
        return ingest_file(path)

    monkeypatch.setattr(bench, "ingest_file", counting)
    rows = run(BenchConfig(algorithm="sort-tree", distribution="file",
                           input_file=str(p), k=3, replicates=3))
    assert calls == [str(p)]
    assert len(rows) == 3


def test_run_validation_detects_fault(monkeypatch):
    import cartesian_topk.selectors as selectors
    sort_tree_select = selectors.SELECTORS["sort-tree"]

    def broken(arrays, k, *, stats=None, want_indices=False):
        result = sort_tree_select(arrays, k, stats=stats, want_indices=want_indices)
        result.values[0] += 1.0  # corrupt one output value
        return result

    # run() looks the selector up in the registry on every call
    monkeypatch.setitem(selectors.SELECTORS, "sort-tree", broken)
    rows = run(BenchConfig(algorithm="sort-tree", m=3, n=3, k=4, validate=True, replicates=2))
    assert [row["validated"] for row in rows] == ["fail", "fail"]


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
    for flag in ("--m", "--n", "--replicates"):
        assert main([flag, "0"]) == 1
    # argparse refuses these first on the command line; check() refuses them too
    for cfg in (BenchConfig(algorithm="nonsense"), BenchConfig(distribution="normal")):
        with pytest.raises(ParameterError):
            cfg.check()


def test_cli_input_file_needs_file_distribution(tmp_path, capsys, monkeypatch):
    # an --input-file the run would not read is refused, not silently ignored;
    # every configuration error is refused before the output is opened
    def no_run(config):
        raise AssertionError("run() started")
    monkeypatch.setattr("cartesian_topk.cli.run", no_run)
    src = tmp_path / "in.txt"
    src.write_text("1 2\n3 4\n")
    out = tmp_path / "rows.csv"
    out.write_text("kept\n")
    for args, needle in ((["--input-file", str(src), "--distribution", "uniform"], "--input-file"),
                         (["--input-file", str(src), "--distribution", "exponential"], "--input-file"),
                         (["--input-file", str(src)], "--input-file"),
                         (["--k", "0"], "k must be positive")):
        args = ["--algorithm", "sort-tree", "--m", "2", "--n", "2", "--k", "2", *args,
                "--output", str(out)]
        assert main(args) == 1
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith("usage error:") and needle in err[0], err
        assert out.read_text() == "kept\n"
    with pytest.raises(ParameterError):
        BenchConfig(input_file=str(src)).check()


@pytest.mark.parametrize("args", [
    ["--output", ""],
    ["--input-file", ""],
    ["--distribution", "file", "--input-file", ""],
    ["--output", "rows.csv", "--emit-gnuplot", ""],
], ids=["output", "input-file", "input-file-with-file-distribution", "emit-gnuplot"])
def test_cli_empty_path_is_usage_error(tmp_path, capsys, monkeypatch, args):
    # an empty string names no file: it is refused, not read as the flag left
    # out (the CSV going to stdout, or an input file never asked for), before
    # the run and before any output is opened
    def no_run(config):
        raise AssertionError("run() started")
    monkeypatch.setattr("cartesian_topk.cli.run", no_run)
    monkeypatch.chdir(tmp_path)
    assert main(["--algorithm", "sort-tree", "--k", "2", *args]) == 1
    captured = capsys.readouterr()
    err = captured.err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("usage error:") and args[-2] in err[0], err
    assert captured.out == "" and list(tmp_path.iterdir()) == []
    with pytest.raises(ParameterError, match="--input-file"):
        BenchConfig(input_file="").check()


@pytest.mark.parametrize("sizes", [["--m", "7"], ["--n", "9"], ["--m", "7", "--n", "9"]])
def test_cli_sizes_refused_with_file_distribution(tmp_path, capsys, monkeypatch, sizes):
    # a file's arrays fix m and n: a size flag the run would ignore is refused
    # before the output is opened, naming each flag given
    def no_run(config):
        raise AssertionError("run() started")
    monkeypatch.setattr("cartesian_topk.cli.run", no_run)
    src = tmp_path / "in.txt"
    src.write_text("1 2 3\n4 5\n")
    out = tmp_path / "rows.csv"
    out.write_text("kept\n")
    assert main(["--distribution", "file", "--input-file", str(src), "--algorithm", "sort-tree",
                 "--k", "2", *sizes, "--output", str(out)]) == 1
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("usage error:"), err
    assert all(flag in err[0] for flag in sizes[::2]), err
    assert out.read_text() == "kept\n"


def test_cli_file_sizes_come_from_the_file(tmp_path, capsys):
    # without --m and --n a file run reports the file's sizes, and a generated
    # run still takes BenchConfig's
    src = tmp_path / "in.txt"
    src.write_text("1 2 3\n4 5\n")
    assert main(["--distribution", "file", "--input-file", str(src), "--algorithm", "sort-tree",
                 "--k", "2"]) == 0
    rows = list(csv.DictReader(io.StringIO(capsys.readouterr().out)))
    assert (rows[0]["m"], rows[0]["n"]) == ("2", "3")
    assert main(["--algorithm", "sort-tree", "--k", "2"]) == 0
    rows = list(csv.DictReader(io.StringIO(capsys.readouterr().out)))
    assert (rows[0]["m"], rows[0]["n"]) == (str(BenchConfig.m), str(BenchConfig.n))


def test_cli_oversized_generation_is_usage_error(monkeypatch, capsys):
    # 10^10 x 10^10 float64 values fail NumPy's size check before any allocation
    args = ["--algorithm", "sort-tree", "--m", "10000000000", "--n", "10000000000", "--k", "1"]
    assert main(args) == 1
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("usage error:")

    # an allocation that fails is refused the same way
    class OutOfMemory:
        def __init__(self, bit_generator):
            pass

        def random(self, size):
            raise MemoryError(f"cannot allocate {size}")

    monkeypatch.setattr(np.random, "Generator", OutOfMemory)
    assert main(["--algorithm", "sort-tree", "--m", "2", "--n", "4", "--k", "1"]) == 1
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("usage error:") and "cannot allocate" in err[0]
    with pytest.raises(ContractViolation):
        generate_inputs("uniform", 0, 4, 1)
    with pytest.raises(ParameterError):
        generate_inputs("file", 2, 2, 1)  # only uniform and exponential are generated


def test_cli_parse_error(tmp_path, capsys):
    p = tmp_path / "bad.txt"
    p.write_text("1 oops\n")
    code = main(["--distribution", "file", "--input-file", str(p), "--k", "1"])
    assert code == 2
    assert "line 1" in capsys.readouterr().err


def test_cli_validation_failure_exit_code(tmp_path, monkeypatch, capsys):
    import cartesian_topk.selectors as selectors
    soft_tree_select = selectors.SELECTORS["soft-tree"]

    def broken(arrays, k, *, stats=None):
        result = soft_tree_select(arrays, k, stats=stats)
        result.values = result.values[:-1] + [result.values[-1] + 0.5]
        return result

    monkeypatch.setitem(selectors.SELECTORS, "soft-tree", broken)
    code = main(["--algorithm", "soft-tree", "--m", "2", "--n", "4", "--k", "3",
                 "--validate"])
    assert code == 3
    captured = capsys.readouterr()
    rows = list(csv.DictReader(io.StringIO(captured.out)))
    assert [row["validated"] for row in rows] == ["fail"]
    assert captured.err == ("validation failure: soft-tree disagrees with brute force "
                            "(m=2, k=3, seed=0)\n")


def test_cli_validation_checks_order(monkeypatch, capsys):
    # every selector returns ascending values, so the right values in another
    # order fail validation
    import cartesian_topk.selectors as selectors
    sort_tensor_select = selectors.SELECTORS["sort-tensor"]

    def reversed_values(arrays, k, *, stats=None):
        result = sort_tensor_select(arrays, k, stats=stats)
        result.values.reverse()
        return result

    monkeypatch.setitem(selectors.SELECTORS, "sort-tensor", reversed_values)
    assert main(["--algorithm", "all", "--m", "3", "--n", "4", "--k", "6", "--validate"]) == 3
    rows = list(csv.DictReader(io.StringIO(capsys.readouterr().out)))
    assert {row["algorithm"]: row["validated"] for row in rows} == {
        "soft-tensor": "ok", "soft-tree": "ok", "sort-tensor": "fail", "sort-tree": "ok",
        "fast-soft-tree": "ok", "brute-force": "ok"}


@pytest.mark.parametrize("algorithm", ["all", "soft-tree"])
def test_cli_validate_runs_the_oracle_once_per_replicate(monkeypatch, capsys, algorithm):
    # under "all" the brute-force row is the oracle for the others
    import cartesian_topk.bench as bench
    calls = []

    def counting(arrays, k, **keywords):
        calls.append(k)
        return brute_force_select(arrays, k, **keywords)

    monkeypatch.setattr(bench, "brute_force_select", counting)
    assert main(["--algorithm", algorithm, "--m", "4", "--n", "5", "--k", "10",
                 "--replicates", "2", "--validate"]) == 0
    assert calls == [10, 10]
    rows = list(csv.DictReader(io.StringIO(capsys.readouterr().out)))
    assert len(rows) == (12 if algorithm == "all" else 2)
    assert {row["validated"] for row in rows} == {"ok"}


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
    monkeypatch.setenv("CARTESIAN_TOPK_GUARD", "0")  # a guard must be positive
    assert main(["--algorithm", "sort-tree", "--m", "2", "--n", "2", "--k", "2"]) == 1


def test_cli_gnuplot_requires_output():
    assert main(["--algorithm", "sort-tree", "--m", "2", "--n", "4", "--k", "3",
                 "--emit-gnuplot", "x.gp"]) == 1


def test_cli_gnuplot_onto_output_refused(tmp_path, capsys, monkeypatch):
    # the script would overwrite the CSV it plots; refused before anything is
    # opened, also when the two paths differ only in spelling or by a link
    def no_run(config):
        raise AssertionError("run() started")
    monkeypatch.setattr("cartesian_topk.cli.run", no_run)
    out = tmp_path / "rows.csv"
    out.write_text("kept\n")
    (tmp_path / "sub").mkdir()
    (tmp_path / "link.csv").symlink_to(out)
    for script in (out, tmp_path / "sub" / ".." / "rows.csv", tmp_path / "link.csv"):
        code = main(["--algorithm", "sort-tree", "--m", "2", "--n", "4", "--k", "3",
                     "--output", str(out), "--emit-gnuplot", str(script)])
        assert code == 1
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith("usage error:"), err
        assert out.read_text() == "kept\n"


@pytest.mark.parametrize("flag", ["--output", "--emit-gnuplot"])
def test_cli_output_onto_input_file_refused(tmp_path, capsys, monkeypatch, flag):
    # opening the output would truncate the input before run() reads it;
    # refused before anything is opened, also through another spelling or a link
    def no_run(config):
        raise AssertionError("run() started")
    monkeypatch.setattr("cartesian_topk.cli.run", no_run)
    src = tmp_path / "in.txt"
    src.write_text("1 2\n3 4\n")
    (tmp_path / "sub").mkdir()
    (tmp_path / "link.txt").symlink_to(src)
    for target in (src, tmp_path / "sub" / ".." / "in.txt", tmp_path / "link.txt"):
        args = ["--distribution", "file", "--input-file", str(src), "--k", "2"]
        if flag == "--output":
            args += ["--output", str(target)]
        else:
            args += ["--output", str(tmp_path / "rows.csv"), "--emit-gnuplot", str(target)]
        assert main(args) == 1
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith("usage error:") and flag in err[0], err
        assert src.read_text() == "1 2\n3 4\n"
    assert not (tmp_path / "rows.csv").exists()


def test_cli_gnuplot_script(tmp_path):
    out = tmp_path / "rows.csv"
    script = tmp_path / "plot.gp"
    code = main(["--algorithm", "sort-tree", "--m", "2", "--n", "4", "--k", "3",
                 "--output", str(out), "--emit-gnuplot", str(script)])
    assert code == 0
    text = script.read_text()
    assert str(out) in text
    # the columns it plots are where the CSV header puts k, algorithm and wall_time_ns
    using = re.search(r"using (\d+):\(strcol\((\d+)\) eq alg \? column\((\d+)\)", text)
    head = csv_header(0)
    assert [int(c) for c in using.groups()] == [
        head.index(name) + 1 for name in ("k", "algorithm", "wall_time_ns")]


def test_cli_gnuplot_script_quotes_the_csv_path(tmp_path):
    # gnuplot writes a ' inside a single-quoted string as ''; read the plot
    # line's file name back by that rule
    out = tmp_path / "it's a 'test'.csv"
    script = tmp_path / "plot.gp"
    assert main(["--algorithm", "sort-tree", "--m", "2", "--n", "4", "--k", "3",
                 "--output", str(out), "--emit-gnuplot", str(script)]) == 0
    plot = next(line for line in script.read_text().splitlines() if line.startswith("plot "))
    quoted = re.fullmatch(r"""plot for \[alg in "[^"]*"\] '((?:[^']|'')*)' every ::1 \\""", plot)
    assert quoted, plot
    assert quoted.group(1).replace("''", "'") == str(out)


def test_cli_unreadable_input_file(tmp_path, capsys):
    missing = tmp_path / "missing.txt"
    code = main(["--distribution", "file", "--input-file", str(missing), "--k", "1"])
    assert code == 2
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and str(missing) in err[0]


def test_cli_non_utf8_input_file(tmp_path, capsys):
    latin1 = tmp_path / "latin1.txt"
    latin1.write_bytes("1 2 3\n4 5 6 \u00b5\n".encode("latin-1"))
    code = main(["--distribution", "file", "--input-file", str(latin1), "--k", "1"])
    assert code == 2
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and str(latin1) in err[0]


def test_cli_negative_seed(capsys):
    assert main(["--algorithm", "sort-tree", "--seed", "-1"]) == 1
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("usage error:") and "seed" in err[0]


def test_cli_sum_overflow_is_usage_error(tmp_path, capsys):
    # each value is finite, but 1e308 + 1e308 overflows float64
    p = tmp_path / "arrays.txt"
    p.write_text("1e308 1e308\n1e308\n")
    code = main(["--distribution", "file", "--input-file", str(p), "--k", "1", "--validate"])
    assert code == 1
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("usage error:") and "overflow" in err[0]


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


@pytest.mark.parametrize("bad", ["output", "script"])
def test_cli_outputs_opened_before_run(tmp_path, capsys, monkeypatch, bad):
    def no_run(config):
        raise AssertionError("run() started with an unwritable output")
    monkeypatch.setattr("cartesian_topk.cli.run", no_run)
    csv = tmp_path / ("no" if bad == "output" else "") / "rows.csv"
    script = tmp_path / ("no" if bad == "script" else "") / "plot.gp"
    code = main(["--algorithm", "sort-tree", "--m", "2", "--n", "4", "--k", "3",
                 "--output", str(csv), "--emit-gnuplot", str(script)])
    assert code == 1
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and str(csv if bad == "output" else script) in err[0]


def test_cli_fast_soft_tree_beyond_float_range(capsys):
    # 64^256 cells once overflowed the eager layer schedule with a traceback
    assert main(["--algorithm", "fast-soft-tree", "--m", "256", "--n", "64", "--k", "8"]) == 0
    captured = capsys.readouterr()
    assert captured.err == ""
    assert captured.out.count("\n") == 2  # header + one row


def test_cli_memory_error_is_one_line(monkeypatch, capsys):
    def out_of_memory(config):
        raise MemoryError
    monkeypatch.setattr("cartesian_topk.cli.run", out_of_memory)
    assert main(["--algorithm", "sort-tree", "--m", "2", "--n", "4", "--k", "3"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    err = captured.err.splitlines()
    assert len(err) == 1 and err[0].startswith("memory error:")


def test_cli_interrupt_is_one_line(monkeypatch, capsys):
    def interrupted(config):
        raise KeyboardInterrupt
    monkeypatch.setattr("cartesian_topk.cli.run", interrupted)
    assert main(["--algorithm", "sort-tree", "--m", "2", "--n", "4", "--k", "3"]) == 130
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == ["interrupted"]


def test_cli_out_of_address_space_prints_no_traceback():
    # a real MemoryError: the child caps its own address space at 256 MiB,
    # then runs the CLI, whose sort-tree run outgrows it building k outputs
    pytest.importorskip("resource")
    child = ("import resource, runpy; limit = 256 * 2**20; "
             "resource.setrlimit(resource.RLIMIT_AS, (limit, limit)); "
             "runpy.run_module('cartesian_topk.cli', run_name='__main__')")
    src = str(Path(cartesian_topk.__file__).resolve().parents[1])
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1",
               PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run(
        [sys.executable, "-c", child, "--algorithm", "sort-tree",
         "--m", "2", "--n", "20000", "--k", "50000000"],
        env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 1
    assert "Traceback" not in proc.stderr
    err = proc.stderr.splitlines()
    assert len(err) == 1 and err[0].startswith("memory error:")
