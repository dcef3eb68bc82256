"""Experiment runner: flag plumbing, output formats, determinism."""

import json
from fractions import Fraction

import pytest

from traffics import cli
from traffics.cli import CSV_HEADER, main
from traffics.ensembles import BandProfile, EntrySpec, MatrixModel
from traffics.independence import build_double_tree_corpus, verify_traffic_independence
from traffics.limits import fixed_band_ltd, rbm_ltd, wigner_ltd
from traffics.moments import parse_poly, require_moment_support, traffic_moment

STAR = "n 3\ne 0 1 x\ne 1 0 x\ne 0 2 x\ne 2 0 x\n"
PAD = "e 0 1 x; e 1 0 x"
PAD_PATH = "e 0 1 x; e 1 0 x; e 1 2 y; e 2 1 y"
ANTI4 = "e 0 1 x; e 2 1 x; e 2 3 x; e 0 3 x"
CYCLE4 = "e 0 1 x; e 1 2 x; e 2 3 x; e 3 0 x"


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_ltd_proportional_star(tmp_path, capsys):
    graph = tmp_path / "dt.tg"
    graph.write_text(STAR)
    code, out, err = run(
        capsys, "ltd", "--graph", str(graph), "--regime", "x=proportional:0.5"
    )
    assert code == 0 and err == ""
    assert out.splitlines() == [
        "double tree: yes (2 pads: x:o x:o)",
        "ltd = 28/27 ≈ 1.037037",
    ]


def test_ltd_inline_graph(capsys):
    code, out, _ = run(capsys, "ltd", "--graph", PAD)
    assert code == 0
    assert "double tree: yes (1 pads: x:o)" in out
    assert "ltd = 1 ≈ 1.000000" in out


def test_ltd_haar(capsys):
    code, out, _ = run(capsys, "ltd", "--graph", ANTI4, "--ensemble", "haar")
    assert code == 0
    assert "orthogonal cactus: yes (pads 4)" in out
    assert "ltd = -1 ≈ -1.000000" in out
    code, out, _ = run(capsys, "ltd", "--graph", CYCLE4, "--ensemble", "haar")
    assert "orthogonal cactus: no" in out
    assert "ltd = 0 ≈ 0.000000" in out


def test_ltd_trace_flag(capsys):
    code, out, _ = run(capsys, "ltd", "--graph", CYCLE4, "--trace")
    assert code == 0
    assert "ltd = 2 ≈ 2.000000" in out
    code, no_trace, _ = run(capsys, "ltd", "--graph", CYCLE4)
    assert "ltd = 0 ≈ 0.000000" in no_trace


def test_ltd_fixed_band(capsys):
    code, out, _ = run(capsys, "ltd", "--graph", PAD, "--band", "x=2")
    assert code == 0
    assert out.splitlines() == ["double tree: yes (1 pads: x:o)", "ltd = 4/5 ≈ 0.800000"]


@pytest.mark.parametrize("entry", ["gaussian:1/2", "gaussian:0.5i"])
def test_ltd_fixed_band_names_a_label_without_real_entries(capsys, entry):
    code, out, err = run(
        capsys, "ltd", "--graph", PAD, "--entry", f"x={entry}", "--regime", "x=fixed:1"
    )
    assert code == 2 and out == ""
    message = json.loads(err)["message"]
    assert message.startswith("label 'x' has beta ")
    assert "fixed-band limits need real-valued entries (beta = 1 or rademacher)" in message


def test_ltd_band_spells_fixed_regime(capsys):
    def ltd(*flags):
        code, out, err = run(capsys, "ltd", *flags)
        assert code == 0 and err == ""
        return out

    # --band honours --trace as --ensemble fixed:B does
    assert ltd("--graph", PAD, "--band", "x=1", "--trace") == ltd(
        "--graph", PAD, "--ensemble", "fixed:1", "--trace")
    # labels without an --entry get Gaussian entries, as under --regime
    rest = ("--graph", PAD_PATH, "--entry", "x=rademacher")
    assert ltd(*rest, "--band", "x=1,y=1") == ltd(*rest, "--regime", "x=fixed:1,y=fixed:1")


# a fixed-band limit lives off double trees too: tau of the pad is tau0 of
# the pad (2/3) plus tau0 of its double-loop quotient (1/3)
FIXED_PAD_TRACE = 1


def test_ltd_fixed_ensemble_trace_sums_every_quotient(capsys):
    code, out, _ = run(capsys, "ltd", "--graph", PAD, "--ensemble", "fixed:1", "--trace")
    assert code == 0
    assert out.splitlines()[-1] == "ltd = 1 ≈ 1.000000"


def test_estimate_fixed_ensemble_theory_sums_every_quotient(capsys):
    code, out, _ = run(
        capsys, "estimate", "--graph", PAD, "--ensemble", "fixed:1", "--n", "200",
        "--samples", "50", "--seed", "1",
    )
    assert code == 0
    row = out.splitlines()[1].split(",")
    assert abs(float(row[5]) - FIXED_PAD_TRACE) < 1e-9
    assert float(row[7]) < 3


def test_ltd_complex_entry(capsys):
    code, out, _ = run(
        capsys, "ltd", "--graph", "e 0 1 x; e 0 1 x", "--entry", "x=gaussian:1/2"
    )
    assert code == 0
    assert "ltd = 1/2 ≈ 0.500000" in out


CPAD = "e 0 1 x; e 0 1 x"


def test_ltd_complex_beta_under_wigner(capsys):
    code, out, err = run(capsys, "ltd", "--graph", CPAD, "--entry", "x=gaussian:0.5+0.5i")
    assert code == 0 and err == ""
    assert out.splitlines()[-1] == "ltd = 0.500000+0.000000i"


def test_estimate_complex_beta_under_wigner(capsys):
    code, out, err = run(
        capsys, "estimate", "--graph", CPAD, "--entry", "x=gaussian:0.5+0.5i",
        "--n", "200", "--samples", "200", "--seed", "1", "--injective",
    )
    assert code == 0 and err == ""
    row = out.splitlines()[1].split(",")
    assert float(row[5]) == 0.5 and float(row[6]) == 0
    assert float(row[7]) < 3


def test_estimate_rounding_level_stderr_counts_as_agreement(capsys):
    # with +-1 entries the injective star trace is a fixed count: the samples
    # differ only in the last bits, and the O(1/n) gap to 28/27 is a miss
    code, out, _ = run(
        capsys, "estimate", "--graph", "e 0 1 x;e 1 0 x;e 0 2 x;e 2 0 x",
        "--regime", "x=proportional:1/2",
        "--n", "200", "--samples", "20", "--seed", "3", "--injective",
        "--entry", "x=rademacher",
    )
    assert code == 0
    row = out.splitlines()[1].split(",")
    assert 0 < float(row[4]) < 1e-15
    assert row[7] == "inf"


def test_estimate_csv_schema(capsys):
    code, out, _ = run(
        capsys, "estimate", "--graph", PAD, "--n", "20,40", "--samples", "25",
        "--seed", "3",
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == CSV_HEADER == "n,samples,mean_re,mean_im,stderr,theory_re,theory_im,z"
    assert len(lines) == 3
    first = lines[1].split(",")
    assert first[0] == "20" and first[1] == "25"
    assert float(first[5]) == 1.0  # wigner pad trace limit
    assert abs(float(first[7])) < 6


def test_estimate_is_deterministic_across_threads(tmp_path, capsys, monkeypatch):
    for samples in ("40", "130"):  # one chunk of 64 draws, or three
        args = ["estimate", "--graph", PAD, "--n", "30", "--samples", samples, "--seed", "7"]
        outs = []
        for threads in ("1", "2", "5"):
            path = tmp_path / f"t{threads}.csv"
            code = main(args + ["--threads", threads, "--out", str(path)])
            assert code == 0
            outs.append(path.read_bytes())
        assert outs[0] == outs[1] == outs[2]
        monkeypatch.setenv("TRAFFICS_THREADS", "3")
        path = tmp_path / "env.csv"
        assert main(args + ["--out", str(path)]) == 0
        assert path.read_bytes() == outs[0]
        monkeypatch.delenv("TRAFFICS_THREADS")


def test_estimate_seed_changes_values(capsys):
    _, a, _ = run(capsys, "estimate", "--graph", PAD, "--n", "20", "--samples", "10",
                  "--seed", "1")
    _, b, _ = run(capsys, "estimate", "--graph", PAD, "--n", "20", "--samples", "10",
                  "--seed", "2")
    assert a != b


def test_estimate_injective_haar(capsys):
    code, out, _ = run(
        capsys, "estimate", "--graph", "e 0 1 x; e 0 1 x", "--ensemble", "haar",
        "--n", "50", "--samples", "20", "--injective",
    )
    assert code == 0
    row = out.strip().splitlines()[1].split(",")
    assert float(row[5]) == 1.0
    assert abs(float(row[2]) - 1.0) < 0.2


def test_concentration_reports_slope(capsys):
    code, out, _ = run(
        capsys, "concentration", "--graph", PAD, "--n", "20,40,80",
        "--samples", "60", "--order", "2",
    )
    assert code == 0
    head, tail = out.rsplit("\n\n", 1)
    assert head.splitlines()[0] == CSV_HEADER
    record = json.loads(tail)
    assert record["order"] == 2
    assert record["loop_edges"] == 0
    assert record["slope"] < -0.5
    assert record["slope_bound"] == -1


def test_concentration_out_file_keeps_json_on_stdout(tmp_path, capsys):
    path = tmp_path / "c.csv"
    code, out, _ = run(
        capsys, "concentration", "--graph", PAD, "--n", "20,40",
        "--samples", "30", "--out", str(path),
    )
    assert code == 0
    assert path.read_text().startswith(CSV_HEADER)
    assert json.loads(out)["order"] == 2


def _strict_json(text):
    def reject(name):
        raise ValueError(f"non-JSON constant {name}")

    return json.loads(text, parse_constant=reject)


def test_concentration_degenerate_moments_give_null_slope(capsys):
    # one sample per n makes every central moment exactly zero
    code, out, err = run(
        capsys, "concentration", "--graph", PAD, "--n", "10,20", "--samples", "1",
    )
    assert code == 0 and err == ""
    record = _strict_json(out.rsplit("\n\n", 1)[1])
    assert record["slope"] is None
    assert "n=10,20" in record["slope_reason"]
    assert record["slope_bound"] == -1


def test_concentration_single_n_gives_null_slope(capsys):
    code, out, _ = run(
        capsys, "concentration", "--graph", PAD, "--n", "20", "--samples", "10",
    )
    assert code == 0
    record = _strict_json(out.rsplit("\n\n", 1)[1])
    assert record["slope"] is None
    assert "two distinct n" in record["slope_reason"]


def test_independence_audit_passes_for_wigner(capsys):
    code, out, _ = run(capsys, "independence", "--max-pads", "2")
    assert code == 0
    data = json.loads(out)
    assert data["graphs"] == 31
    assert data["violations"] == 0


def test_independence_audit_flags_proportional_bands(capsys):
    code, out, _ = run(
        capsys, "independence", "--max-pads", "2",
        "--regime", "x=proportional:1/4,y=proportional:1/2",
    )
    assert code == 0
    data = json.loads(out)
    assert data["violations"] > 0


def test_independence_regimes_choose_the_band_evaluator(capsys):
    # the regimes alone pick rbm_ltd; no flag can swap in the Wigner limit
    code, out, err = run(
        capsys, "independence", "--max-pads", "2",
        "--regime", "x=proportional:1/4,y=proportional:1/2",
    )
    assert code == 0 and err == ""
    regimes = {"x": BandProfile.parse("proportional:1/4"),
               "y": BandProfile.parse("proportional:1/2")}
    report = verify_traffic_independence(
        lambda T: rbm_ltd(T, regimes), None, build_double_tree_corpus(2, ("x", "y"))
    )
    assert out == report.to_json() + "\n"
    assert json.loads(out)["violations"] == 13


def test_independence_complex_beta(capsys):
    code, out, _ = run(
        capsys, "independence", "--max-pads", "2",
        "--beta", "x=1i,y=1i",
    )
    assert code == 0
    assert json.loads(out)["violations"] > 0


def test_partial_regimes_default_to_wigner(capsys):
    code, out, err = run(
        capsys, "moments", "--poly", "x + y", "--order", "4", "--regime", "x=proportional:1/2"
    )
    assert code == 0 and err == ""
    regimes = {"x": BandProfile.parse("proportional:1/2"), "y": BandProfile.parse("wigner")}
    want = [traffic_moment(parse_poly("x + y"), k, lambda T: rbm_ltd(T, regimes))
            for k in range(1, 5)]
    assert out.splitlines()[1:] == [f"{k} {v}" for k, v in enumerate(want, 1)]


GAUSS = EntrySpec.gaussian()


def test_independence_audits_fixed_bands(capsys):
    code, out, _ = run(capsys, "independence", "--max-pads", "1", "--regime", "x=fixed:1,y=fixed:2")
    assert code == 0
    corpus = build_double_tree_corpus(1, ("x", "y"))
    report = verify_traffic_independence(
        lambda T: fixed_band_ltd(T, {"x": 1, "y": 2}, {"x": GAUSS, "y": GAUSS}), None, corpus
    )
    assert out == report.to_json() + "\n"
    # the fixed-band value, not the Wigner one, is audited
    wigner = verify_traffic_independence(wigner_ltd, None, corpus)
    assert report.records != wigner.records


def test_moments_refuse_fixed_bands_with_the_shared_guard(capsys):
    code, out, err = run(capsys, "moments", "--poly", "x", "--order", "2", "--regime", "x=fixed:1")
    assert code == 2 and out == ""
    with pytest.raises(ValueError) as exc:
        require_moment_support(MatrixModel({"x": BandProfile.parse("fixed:1")}))
    assert json.loads(err)["message"] == str(exc.value)


def test_moments_name_the_order_of_a_closed_graph_too_large(capsys):
    code, out, err = run(capsys, "moments", "--poly", "x*x*x", "--order", "6")
    assert code == 2 and out == ""
    assert json.loads(err) == {
        "error": "ValueError",
        "message": "the moment of order 6 has a closed graph of 18 vertices; "
                   "moment sums take at most 16",
    }


def test_moments_table(capsys):
    code, out, _ = run(capsys, "moments", "--poly", "x", "--order", "4")
    assert code == 0
    assert out.splitlines() == ["order value", "1 0", "2 1", "3 0", "4 2"]


def test_moments_markov(capsys):
    code, out, _ = run(
        capsys, "moments", "--poly", "x + 0.5*row(x) + 0.5*col(x)", "--order", "4"
    )
    assert code == 0
    assert out.splitlines()[-1] == "4 9"


def test_moments_complex_beta(capsys):
    poly = "x + 0.5*row(x) + 0.5*col(x)"
    code, out, err = run(
        capsys, "moments", "--poly", poly, "--order", "4", "--beta", "x=0.5+0.5i"
    )
    assert code == 0 and err == ""
    lines = out.splitlines()
    assert lines[0] == "order value"
    beta = {"x": 0.5 + 0.5j}
    for line in lines[1:]:
        k, text = line.split()
        want = traffic_moment(parse_poly(poly), int(k), lambda T: wigner_ltd(T, beta))
        got = complex(text.replace("i", "j"))
        assert abs(got - want) < 1e-9
    assert lines[2].endswith("i")


def test_config_file_precedence(tmp_path, capsys):
    cfg = tmp_path / "exp.cfg"
    cfg.write_text("samples = 7\nn = 20\nseed = 4  # inline comment\n")
    code, out, _ = run(capsys, "estimate", "--graph", PAD, "--config", str(cfg))
    assert code == 0
    assert out.splitlines()[1].split(",")[1] == "7"
    code, out, _ = run(
        capsys, "estimate", "--graph", PAD, "--config", str(cfg), "--samples", "5"
    )
    assert out.splitlines()[1].split(",")[1] == "5"


def test_thread_env_below_one_is_refused(monkeypatch, capsys):
    monkeypatch.setenv("TRAFFICS_THREADS", "0")
    code, out, err = run(capsys, "estimate", "--graph", PAD, "--n", "5", "--samples", "2")
    assert code == 2 and out == ""
    assert "threads >= 1" in json.loads(err)["message"]


def test_bad_config_line_is_reported(tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("samples 7\n")
    code, out, err = run(capsys, "estimate", "--graph", PAD, "--config", str(cfg))
    assert code == 2
    assert "expected key = value" in json.loads(err)["message"]


def test_unknown_config_key_is_reported(tmp_path, capsys):
    cfg = tmp_path / "typo.cfg"
    cfg.write_text("n = 20\nsampels = 7\n")
    code, out, err = run(capsys, "estimate", "--graph", PAD, "--config", str(cfg))
    assert code == 2 and out == ""
    assert "2: unknown key 'sampels'" in json.loads(err)["message"]
    # a flag of another subcommand is no key of this one
    cfg.write_text("max-pads = 2\n")
    code, _, err = run(capsys, "estimate", "--graph", PAD, "--config", str(cfg))
    assert code == 2 and "'max-pads'" in json.loads(err)["message"]


def test_errors_are_machine_readable(capsys):
    code, out, err = run(capsys, "ltd", "--graph", "/no/such/file.tg")
    assert code == 2 and out == ""
    record = json.loads(err)
    assert record["error"] == "FileNotFoundError"
    assert "graph file not found" in record["message"]

    code, _, err = run(capsys, "ltd", "--graph", PAD, "--ensemble", "warp")
    assert code == 2
    assert json.loads(err)["error"] == "ValueError"

    code, _, err = run(capsys, "estimate", "--graph", PAD)
    assert code == 2
    assert "missing --n" in json.loads(err)["message"]


@pytest.mark.parametrize("command, flags", [
    ("ltd", ()),
    ("estimate", ("--n", "100", "--samples", "20")),
])
def test_fixed_band_mixed_with_another_regime_is_refused(capsys, command, flags):
    code, out, err = run(capsys, command, "--graph", PAD_PATH,
                         "--regime", "x=proportional:1/2,y=fixed:2", *flags)
    assert code == 2 and out == ""
    assert json.loads(err) == {
        "error": "ValueError",
        "message": "fixed bands on y mixed with other regimes on x: no exact limit covers the mix",
    }


def test_oversized_contraction_is_a_user_error(capsys, monkeypatch):
    calls = []
    monkeypatch.setattr(MatrixModel, "sample", lambda *args, **kw: calls.append(args))
    k6 = "; ".join(f"e {u} {v} x" for u in range(6) for v in range(u + 1, 6))
    code, out, err = run(capsys, "estimate", "--graph", k6, "--n", "200", "--samples", "2")
    assert code == 2 and out == "" and calls == []
    record = json.loads(err)
    assert record["error"] == "ValueError"
    assert "degree-5 contraction step" in record["message"]


def test_program_bugs_are_not_user_errors(monkeypatch, capsys):
    # only ValueError and OSError are user errors (exit 2); a TypeError is a
    # bug and propagates, which the interpreter turns into exit 1
    def broken(res):
        raise TypeError("unsupported operand")

    monkeypatch.setitem(cli._COMMANDS, "ltd", broken)
    with pytest.raises(TypeError):
        main(["ltd", "--graph", PAD])
    assert capsys.readouterr().err == ""


@pytest.mark.parametrize("argv", [
    ("ltd", "--graph", PAD, "--regime", "x=proportional:1/0"),
    ("ltd", "--graph", PAD, "--entry", "x=gaussian:1/0"),
    ("moments", "--poly", "1/0*x", "--order", "2"),
    ("estimate", "--graph", PAD, "--n", "0", "--samples", "2"),
    ("estimate", "--graph", PAD, "--n", "5", "--samples", "0"),
    ("moments", "--poly", "x", "--order", "-1"),
    ("moments", "--poly", "x", "--order", "0"),
    ("ltd", "--graph", PAD, "--regime", "y=wigner"),
    ("estimate", "--graph", PAD, "--n", "5", "--samples", "2", "--entry", "y=rademacher"),
    ("ltd", "--graph", PAD, "--band", "y=2"),
    ("ltd", "--graph", "e 0 1 x; e 1 0 x; e 1 2 y; e 2 1 y", "--band", "x=2"),
    ("moments", "--poly", "x", "--order", "2", "--beta", "y=2"),
    ("moments", "--poly", "x", "--order", "2", "--regime", "x=proportional:1/2,y=slow:0.5"),
    ("independence", "--max-pads", "1", "--beta", "z=2"),
    ("independence", "--max-pads", "1", "--families", "x=a,y=b,z=c"),
    ("ltd", "--graph", PAD, "--band", "x=1", "--regime", "x=wigner"),
    ("moments", "--poly", "x", "--order", "2", "--beta", "x=2"),
    ("moments", "--poly", "x", "--order", "2", "--beta", "x=nan"),
    ("independence", "--max-pads", "1", "--beta", "x=2"),
    ("independence", "--max-pads", "1", "--beta", "x=nan"),
    ("ltd", "--graph", "e 0 1 x; e 0 1 x", "--entry", "x=gaussian:nan"),
    ("estimate", "--graph", PAD, "--n", "5", "--samples", "2", "--entry", "x=gaussian:nan"),
    ("ltd", "--graph", PAD, "--entry", "x=rademacher:2"),
    ("estimate", "--graph", PAD, "--n", "5", "--samples", "2", "--threads", "0"),
    ("concentration", "--graph", PAD, "--n", "5", "--samples", "2", "--threads", "-4"),
    ("moments", "--poly", "x", "--order", "2", "--regime", "x=fixed:1"),
])
def test_bad_numbers_are_user_errors(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == ""
    assert json.loads(err)["error"] == "ValueError"


@pytest.mark.parametrize("beta", ["inf", "-inf"])
def test_infinite_beta_is_refused_as_non_finite(capsys, beta):
    code, out, err = run(capsys, "moments", "--poly", "x", "--order", "2", "--beta", f"x={beta}")
    assert code == 2 and out == ""
    assert json.loads(err)["message"].startswith("beta must be finite")


@pytest.mark.parametrize("text, want", [
    ("0.6i", 0.6j), ("1+2i", 1 + 2j), ("-1i", -1j),
    ("1/2", Fraction(1, 2)), ("-3/4", Fraction(-3, 4)),
])
def test_beta_parsing(text, want):
    got = cli._parse_beta(text)
    assert got == want and type(got) is type(want)


@pytest.mark.parametrize("argv", [
    ("moments", "--poly", "x", "--order", "2", "--threads", "0"),
    ("moments", "--poly", "x", "--order", "2", "--seed", "1"),
    ("ltd", "--graph", PAD, "--threads", "2"),
    ("ltd", "--graph", PAD, "--seed", "1"),
    ("independence", "--max-pads", "1", "--threads", "0"),
    ("independence", "--max-pads", "1", "--seed", "1"),
])
def test_sampling_flags_only_where_something_is_drawn(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(list(argv))
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


@pytest.mark.parametrize("argv, key", [
    (("moments", "--poly", "x", "--order", "2"), "threads"),
    (("ltd", "--graph", PAD), "seed"),
    (("independence", "--max-pads", "1"), "threads"),
])
def test_sampling_config_keys_only_where_something_is_drawn(tmp_path, capsys, argv, key):
    cfg = tmp_path / "exp.cfg"
    cfg.write_text(f"{key} = 1\n")
    code, out, err = run(capsys, *argv, "--config", str(cfg))
    assert code == 2 and out == ""
    assert f"unknown key '{key}'" in json.loads(err)["message"]


def test_independence_refuses_repeated_labels(capsys):
    code, out, err = run(capsys, "independence", "--max-pads", "1", "--labels", "x,x")
    assert code == 2 and out == ""
    record = json.loads(err)
    assert record["error"] == "ValueError" and "x" in record["message"]


def test_independence_labels_strip_spaces(capsys):
    _, plain, _ = run(capsys, "independence", "--max-pads", "1", "--labels", "x,y")
    code, spaced, _ = run(capsys, "independence", "--max-pads", "1", "--labels", " x, y ")
    assert code == 0 and spaced == plain


@pytest.mark.parametrize("labels", ["", "x,", ",y", "x, ,y", " "])
def test_independence_refuses_empty_labels(tmp_path, capsys, labels):
    code, out, err = run(capsys, "independence", "--max-pads", "1", "--labels", labels)
    assert code == 2 and out == ""
    assert "--labels" in json.loads(err)["message"]
    cfg = tmp_path / "exp.cfg"
    cfg.write_text(f"labels = {labels}\n")
    code, out, err = run(capsys, "independence", "--max-pads", "1", "--config", str(cfg))
    assert code == 2 and out == ""
    assert "--labels" in json.loads(err)["message"]


def test_haar_rejects_entry_flags(capsys):
    code, _, err = run(
        capsys, "ltd", "--graph", PAD, "--ensemble", "haar", "--entry", "x=gaussian"
    )
    assert code == 2
    assert "haar ensembles take no regime or entry flags" in json.loads(err)["message"]


def test_out_file_matches_stdout(tmp_path, capsys):
    _, stdout_text, _ = run(capsys, "moments", "--poly", "x", "--order", "2")
    path = tmp_path / "m.txt"
    assert main(["moments", "--poly", "x", "--order", "2", "--out", str(path)]) == 0
    assert path.read_text() == stdout_text
