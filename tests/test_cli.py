import dataclasses
import json
import os
import shlex
import warnings
from unittest import mock

import jsonschema
import numpy as np
import pytest

import champagne as ch
from champagne import barriers, cli, domains, spatial, walker
from champagne.cli import build_parser, main

SCHEMA_PATH = os.path.join(os.path.dirname(ch.__file__), "schema", "artifact.schema.json")


def _load_schema():
    with open(SCHEMA_PATH) as fh:
        return json.load(fh)


def _validate(path):
    with open(path) as fh:
        data = json.load(fh)
    jsonschema.validate(data, _load_schema())
    return data


def _timeless(result):
    """result without the wall_time of its estimates, which no re-run repeats."""
    if isinstance(result, dict):
        return {k: _timeless(v) for k, v in result.items() if k != "wall_time"}
    if isinstance(result, list):
        return [_timeless(v) for v in result]
    return result


def test_gen_seq_counts(tmp_path, capsys):
    out = tmp_path / "seq.json"
    assert main(["gen-seq", "--ring", "q=0.5,scale=1,depth=3", "--seed", "3",
                 "-o", str(out)]) == 0
    pts = json.loads(out.read_text())
    assert len(pts) == 14


def test_diag_roundtrip_is_deterministic(tmp_path):
    seq_path = tmp_path / "seq.csv"
    assert main(["gen-seq", "--ring", "q=0.5,scale=2,depth=4", "--seed", "8",
                 "-o", str(seq_path)]) == 0
    outs = []
    for name in ("a.json", "b.json"):
        out = tmp_path / name
        assert main(["diag", "--seq", str(seq_path), "--probe-modulus", "0.8",
                     "-o", str(out)]) == 0
        outs.append(_validate(out))
    assert outs[0]["result"] == outs[1]["result"]
    assert outs[0]["result"]["separation"] > 0


def test_schema_file_is_valid_draft7():
    jsonschema.Draft7Validator.check_schema(_load_schema())


def test_density_artifact(tmp_path):
    seq_path = tmp_path / "seq.json"
    assert main(["gen-seq", "--ring", "q=0.5,scale=2,depth=5", "--seed", "3",
                 "-o", str(seq_path)]) == 0
    out = tmp_path / "density.json"
    assert main(["density", "--seq", str(seq_path), "--r-list", "0.8,0.9",
                 "-o", str(out)]) == 0
    data = _validate(out)
    res = data["result"]
    assert len(res["lower_curve"]) == 2
    assert res["lower_curve"][0] <= res["upper_curve"][0]


def test_criterion_artifact(tmp_path):
    out = tmp_path / "crit.json"
    assert main(["criterion", "--profile", "expinv:1,1", "-o", str(out)]) == 0
    res = _validate(out)["result"]
    assert res["integral"]["value"] == pytest.approx(1.0, abs=1e-9)
    assert res["integral"]["classification"] == res["sum"]["classification"] == "convergent"
    # the 10,000 partial sums of the sum form stay off the artifact
    assert "partial_sums" not in res["sum"] and "partial_sums" not in res["integral"]


def test_measure_pipeline(tmp_path):
    seq_path = tmp_path / "seq.json"
    dom_path = tmp_path / "dom.json"
    est_path = tmp_path / "est.json"
    assert main(["gen-seq", "--ring", "q=0.5,scale=1,depth=3", "--seed", "1",
                 "-o", str(seq_path)]) == 0
    assert main(["build-domain", "--seq", str(seq_path), "--profile", "power:0.05,2",
                 "--truncation", "0.875", "-o", str(dom_path)]) == 0
    dom_data = json.loads(dom_path.read_text())
    assert dom_data["truncation_R"] == 0.875
    assert len(dom_data["pseudo_cx"]) == 14
    assert main(["measure", "--domain", str(dom_path), "--start", "0,0",
                 "--walks", "4000", "--seed", "4", "-o", str(est_path)]) == 0
    data = _validate(est_path)
    res = data["result"]
    assert res["n_walks"] == 4000
    assert res["hits_exterior"] + sum(res["hits_per_bubble"].values()) == 4000
    assert res["ci_low"] <= res["estimate"] <= res["ci_high"]
    assert res["steps_total"] > 0 and res["wall_time"] > 0
    assert data["config"]["seed"] == 4


def test_one_bubble_measure_value(tmp_path):
    dom = ch.domain_from_pseudo([(0.5 + 0j, 0.25)])
    dom_path = tmp_path / "one.json"
    dom.save(dom_path)
    est_path = tmp_path / "est.json"
    assert main(["measure", "--domain", str(dom_path), "--target", "bubble:0",
                 "--walks", "20000", "--epsilon", "1e-6", "--seed", "7",
                 "-o", str(est_path)]) == 0
    data = _validate(est_path)
    assert data["result"]["estimate"] == pytest.approx(0.5, abs=0.02)


def test_measure_rejects_negative_threads(tmp_path):
    dom_path = tmp_path / "one.json"
    ch.domain_from_pseudo([(0.5 + 0j, 0.25)]).save(dom_path)
    assert main(["measure", "--domain", str(dom_path), "--walks", "10",
                 "--threads", "-1"]) == 2


def test_sandwich_and_layered(tmp_path):
    dom = ch.domain_from_pseudo([(0.5 + 0j, 0.25)], truncation_R=1.0)
    dom_path = tmp_path / "one.json"
    dom.save(dom_path)
    sw = tmp_path / "sw.json"
    assert main(["sandwich", "--domain", str(dom_path), "-o", str(sw)]) == 0
    data = _validate(sw)
    assert data["result"]["lower_union"] == pytest.approx(0.5, abs=1e-12)
    assert "components" not in data["result"]  # one value per bubble stays on the report
    lay = tmp_path / "lay.json"
    assert main(["layered", "--domain", str(dom_path), "--jmax", "2",
                 "--walks", "400", "--grid-points", "8", "--seed", "3",
                 "-o", str(lay)]) == 0
    data = _validate(lay)
    assert len(data["result"]["layers"]) == 2


def test_barrier_cli_and_refusal_exit_code(tmp_path):
    seq = ch.generate_ring_lattice(0.5, 1.5, 6, seed=19)
    dom = ch.build_finitely_connected(seq, 0j, 1 - 2.0 ** -4, "one-minus-r")
    dom_path = tmp_path / "fc.json"
    dom.save(dom_path)
    out = tmp_path / "bar.json"
    assert main(["barrier", "--domain", str(dom_path), "-o", str(out)]) == 0
    result = _validate(out)["result"]
    assert 0.0 <= result["exterior_lower"] <= 1.0
    assert "a" not in result and "b" not in result
    assert len(result["weights"]) == len(result["shells"]) and min(result["weights"]) >= 0.0
    assert result["shells"] == sorted(set(result["shells"])) and "n" not in result
    # weights that leave the barrier at 0 on a bubble are refused
    with mock.patch.object(barriers, "_shell_weights", lambda M: np.zeros(M.shape[1])):
        assert main(["barrier", "--domain", str(dom_path), "-o", str(out)]) == 3


def test_barrier_on_bubbles_below_coordinate_resolution(tmp_path):
    # the README's domain: the ring-6 bubbles (pseudo radius ~1.6e-28) have
    # samples that round onto their centres, where the own-shell potential
    # is +inf; the certificate takes log(1/s) there and stays below WoS
    seq = ch.generate_ring_lattice(0.5, 2, 8, seed=20)
    dom = ch.build_champagne(seq, ch.parse_profile("expinv:1,1"), 0.984375)
    assert dom.pseudo_radii.min() < 1e-27
    dom_path = tmp_path / "dom.json"
    dom.save(dom_path)
    out = tmp_path / "bar.json"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["barrier", "--domain", str(dom_path), "-o", str(out)]) == 0
    lower = _validate(out)["result"]["exterior_lower"]
    est = ch.estimate_measure(dom, 0j, n_walks=4000, seed=5)
    assert 0.0 <= lower <= est.ci_high


@pytest.mark.parametrize("key", ["b", "layers"])
def test_config_naming_a_barrier_knob_exits_2(tmp_path, key):
    # the shell weights solve a linear program: there is no b, and the
    # shell count follows from the domain
    dom_path = tmp_path / "one.json"
    ch.domain_from_pseudo([(0.5 + 0j, 0.25)]).save(dom_path)
    cfg = tmp_path / "run.conf"
    cfg.write_text(f"{key} = 3\n")
    assert main(["barrier", "--domain", str(dom_path), "--config", str(cfg)]) == 2


def test_validation_errors_exit_2(tmp_path):
    assert main(["diag"]) == 2  # no sequence given
    assert main(["criterion", "--profile", "bogus:1"]) == 2
    bad = tmp_path / "nodomain.json"
    assert main(["measure", "--domain", str(bad), "--walks", "10"]) in (2, 3)


@pytest.mark.parametrize("name, text", [
    ("one-field.csv", "re,im\n0.1,0.2\n0.3\n"),
    ("three-fields.csv", "re,im\n0.1,0.2,0.3\n"),
    ("one-real.json", "[[0.1]]"),
    ("bare-reals.json", "[1, 2]"),
])
def test_malformed_sequence_files_exit_2(tmp_path, name, text):
    # every entry must be exactly two reals
    path = tmp_path / name
    path.write_text(text)
    assert main(["diag", "--seq", str(path), "-o", str(tmp_path / "out.json")]) == 2


@pytest.mark.parametrize("name, text", [
    ("one-column.csv", "t\n0.1\n0.5\n"),
    ("header-only.csv", "t,phi\n"),
])
def test_malformed_table_profiles_exit_2(tmp_path, capsys, name, text):
    # every row after the header must be exactly two reals t,phi
    path = tmp_path / name
    path.write_text(text)
    assert main(["criterion", "--profile", f"table:{path}"]) == 2
    assert str(path) in capsys.readouterr().err


def _edit(key, value):
    return lambda data: {**data, key: value}


@pytest.mark.parametrize("edit", [
    lambda data: [[0.1, 0.2], [0.3, 0.4]],                     # a sequence file
    lambda data: {k: v for k, v in data.items() if k != "pseudo_radius"},
    _edit("pseudo_cx", ["0.5", -0.5]),
    _edit("source_index", [0.0, 1.0]),
    _edit("truncation_R", "1"),
    _edit("pseudo_cy", [0.0]),
    _edit("pseudo_cx", [1.0, -0.5]),                            # centre on the circle
    _edit("pseudo_radius", [0.25, 1.0]),
    _edit("pseudo_radius", [0.6, 0.6]),                         # the two bubbles meet
    lambda data: "{",                                           # not JSON
], ids=["sequence-file", "missing-column", "string-column", "float-index", "string-R",
        "unequal-columns", "centre-outside", "radius-outside", "overlap", "not-json"])
def test_malformed_domain_files_exit_2(tmp_path, capsys, edit):
    data = json.loads(ch.domain_from_pseudo([(0.5 + 0j, 0.25), (-0.5 + 0j, 0.25)]).to_json())
    edited = edit(data)
    path = tmp_path / "dom.json"
    path.write_text(edited if isinstance(edited, str) else json.dumps(edited))
    assert main(["measure", "--domain", str(path), "--walks", "10"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and str(path) in err


def test_theorem2_cli_with_csv(tmp_path):
    seq_path = tmp_path / "seq.json"
    assert main(["gen-seq", "--ring", "q=0.5,scale=2,depth=6", "--seed", "2",
                 "-o", str(seq_path)]) == 0
    out = tmp_path / "t2.json"
    csv_path = tmp_path / "t2.csv"
    assert main(["theorem2", "--seq", str(seq_path), "--r-list", "0.9",
                 "--walks", "1500", "--seed", "5", "--max-probes", "3",
                 "-o", str(out), "--csv", str(csv_path)]) == 0
    data = _validate(out)
    assert len(data["result"]["harmonic_lower"]) == 1
    lines = csv_path.read_text().strip().splitlines()
    assert lines[0].startswith("r,")
    assert len(lines) == 2


def test_dichotomy_sweep_cli(tmp_path):
    seq_path = tmp_path / "seq.json"
    assert main(["gen-seq", "--ring", "q=0.5,scale=1,depth=5", "--seed", "6",
                 "-o", str(seq_path)]) == 0
    out = tmp_path / "sweep.json"
    assert main(["dichotomy-sweep", "--seq", str(seq_path), "--profile", "expinv:1,1",
                 "--truncations", "0.875,0.9375", "--walks", "3000", "--seed", "9",
                 "-o", str(out)]) == 0
    data = _validate(out)
    rows = data["result"]["rows"]
    assert [row["truncation_R"] for row in rows] == [0.875, 0.9375]
    for row in rows:
        assert row["sandwich"]["lower_union"] - 1e-12 <= row["measure"]["estimate"]


def test_config_file_supplies_defaults(tmp_path):
    cfg = tmp_path / "run.conf"
    cfg.write_text("seed = 77\n")
    out = tmp_path / "crit.json"
    assert main(["criterion", "--profile", "expinv:1,2", "--config", str(cfg),
                 "-o", str(out)]) == 0
    assert _validate(out)["result"]["integral"]["value"] == pytest.approx(0.5, abs=1e-9)


def test_config_naming_tail_tol_exits_2(tmp_path):
    # the criterion is exact, so it has no tail tolerance to configure
    cfg = tmp_path / "run.conf"
    cfg.write_text("tail_tol = 1e-9\n")
    assert main(["criterion", "--profile", "expinv:1,2", "--config", str(cfg)]) == 2


@pytest.mark.parametrize("argv", [
    ["measure", "--domain", "{dom}", "--walks", "10", "--target", "bubble:abc"],
    ["measure", "--domain", "{dom}", "--walks", "10", "--target", "bubble:"],
    ["theorem2", "--ring", "q=0.5,scale=1,depth=3", "--r-list", "0.9", "--walks", "10",
     "--max-probes", "0"],
    ["theorem2", "--ring", "q=0.5,scale=1,depth=3", "--r-list", "0.9", "--walks", "10",
     "--max-probes", "-3"],
    ["barrier", "--domain", "{dom}", "--eta", "0"],
    ["barrier", "--domain", "{dom}", "--eta", "1.5"],
    ["layered", "--domain", "{dom}", "--jmax", "2", "--walks", "0"],
    ["gen-seq", "--ring", "q=0.5,scael=2", "--seed", "1"],
    ["gen-seq", "--ring", "q=0.5,depth=2,q=0.9", "--seed", "1"],
    ["gen-seq", "--ring", "q=0.5,scale=inf,depth=3", "--seed", "1"],
    ["density", "--ring", "q=0.5,scale=1,depth=3", "--r-list", "0.9", "--grid-density", "inf"],
    ["gen-seq", "--ring", "q=0.5,scale=1e300,depth=3", "--seed", "1"],
    ["density", "--ring", "q=0.5,scale=1,depth=3", "--r-list", "0.9", "--grid-density", "1e300"],
    ["diag", "--ring", "q=0.5,scale=1,depth=3", "--probe-modulus", "0.8",
     "--grid-density", "1e300"],
    ["dichotomy-sweep", "--ring", "q=0.5,scale=1,depth=3", "--profile", "expinv:1,1",
     "--truncations", ",", "--walks", "10"],
    ["criterion", "--profile", "power:0.1,inf"],
    ["criterion", "--profile", "expinv:inf,1"],
    ["criterion", "--profile", "expinv:1,inf"],
    ["criterion", "--profile", "expinv:1,1", "--k", "inf"],
    ["layered", "--domain", "{dom}", "--jmax", "2", "--walks", "10", "--k", "inf"],
])
def test_bad_inputs_exit_2(tmp_path, capsys, argv):
    dom_path = tmp_path / "one.json"
    ch.domain_from_pseudo([(0.5 + 0j, 0.25)], truncation_R=1.0).save(dom_path)
    assert main([a.format(dom=dom_path) for a in argv]) == 2
    assert capsys.readouterr().err.startswith("error:")


@pytest.mark.parametrize("argv", [
    ["criterion", "--profile", "expinv:1,1", "--k", "inf"],
    ["layered", "--domain", "{dom}", "--jmax", "2", "--walks", "10", "--k", "inf"],
], ids=lambda argv: argv[0])
def test_an_infinite_k_is_named(tmp_path, capsys, argv):
    dom_path = tmp_path / "one.json"
    ch.domain_from_pseudo([(0.5 + 0j, 0.25)], truncation_R=1.0).save(dom_path)
    assert main([a.format(dom=dom_path) for a in argv]) == 2
    assert "K must be finite" in capsys.readouterr().err


# each first array needs more than 2^50 bytes, which no machine can map,
# so numpy refuses it without allocating
@pytest.mark.parametrize("argv", [
    ["criterion", "--profile", "power:0.1,2", "--jmax", str(10 ** 17)],
    ["barrier", "--domain", "{dom}", "--samples", str(10 ** 15)],
    ["measure", "--domain", "{dom}", "--walks", str(10 ** 15)],
    ["layered", "--domain", "{dom}", "--jmax", "2", "--walks", "10",
     "--grid-points", str(10 ** 15)],
], ids=lambda argv: argv[0])
def test_memory_the_program_cannot_get_is_refused(tmp_path, capsys, argv):
    dom_path = tmp_path / "one.json"
    ch.domain_from_pseudo([(0.5 + 0j, 0.25)], truncation_R=1.0).save(dom_path)
    assert main([a.format(dom=dom_path) for a in argv]) == 3
    err = capsys.readouterr().err
    assert err.startswith("refused: not enough memory") and "Traceback" not in err


@pytest.mark.parametrize("argv, named", [
    (["measure", "--domain", "{bin}.json"], "{bin}.json"),
    (["diag", "--seq", "{bin}.csv"], "{bin}.csv"),
    (["diag", "--seq", "{bin}.json"], "{bin}.json"),
    (["measure", "--domain", "x.json", "--config", "{bin}.cfg"], "{bin}.cfg"),
    (["diag", "--seq", "{tmp}/text.json"], "{tmp}/text.json"),
    (["criterion", "--profile", "power:0.1,2", "-o", "{tmp}/nodir/crit.json"],
     "{tmp}/nodir/crit.json"),
    (["criterion", "--profile", "power:0.1,2", "-o", "{tmp}"], "{tmp}"),
], ids=["domain", "csv", "json", "config", "not-json", "no-dir", "a-dir"])
def test_a_file_that_cannot_be_read_or_written_is_named(tmp_path, capsys, argv, named):
    # a binary file is not UTF-8 text, nor text.json JSON; the refusal
    # names the path given, never a temporary file
    for suffix in (".json", ".csv", ".cfg"):
        (tmp_path / f"bin{suffix}").write_bytes(b"\xff\xfe\x00\x89PNG")
    (tmp_path / "text.json").write_text("not json")
    names = {"bin": tmp_path / "bin", "tmp": tmp_path}
    assert main([a.format(**names) for a in argv]) == 2
    err = capsys.readouterr().err
    assert named.format(**names) in err and "Traceback" not in err
    assert ".tmp-artifact" not in err and not list(tmp_path.glob(".tmp-artifact-*"))


@pytest.mark.parametrize("profile, code", [
    ("expinv:1e300,1e300", 0),     # every closed form lies below the least double
    ("expinv:1e-170,1e-170", 3),   # c beta underflows to 0
    ("expinv:1e-300,1e-10", 3),    # 1/(c beta) = 1e310
])
def test_the_criterion_ends_in_doubles_or_a_refusal(tmp_path, capsys, profile, code):
    out = tmp_path / "crit.json"
    assert main(["criterion", "--profile", profile, "-o", str(out)]) == code
    err = capsys.readouterr().err
    assert "Traceback" not in err
    if code == 0:
        res = _validate(out)["result"]
        assert res["integral"]["value"] == res["sum"]["value"] == 0.0
    else:
        assert err.startswith(f"refused: profile {profile}:")


@pytest.mark.parametrize("command", ["criterion", "build-domain", "dichotomy-sweep"])
def test_every_profile_flag_states_the_grammar(command):
    text = " ".join(build_parser()[1][command].format_help().split())
    assert domains.PROFILE_GRAMMAR in text
    for kind in [*domains._CLOSED_FORMS, "table"]:
        assert f"{kind}:" in text


@pytest.mark.parametrize("command", ["density", "diag"])
@pytest.mark.parametrize("density", ["0", "nan", "inf"])
def test_a_bad_grid_density_is_named(capsys, command, density):
    flags = ["--r-list", "0.9"] if command == "density" else ["--probe-modulus", "0.8"]
    argv = [command, "--ring", "q=0.5,scale=1,depth=3", *flags, "--grid-density", density]
    assert main(argv) == 2
    assert "grid density must be positive and finite" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["layered", "--domain", "{dom}", "--jmax", "60"],
    ["layered", "--domain", "{dom}", "--k", "1e300", "--jmax", "3"],
], ids=["jmax", "k"])
def test_an_outer_circle_that_rounds_to_1_names_k_and_jmax(tmp_path, capsys, argv):
    dom_path = tmp_path / "one.json"
    ch.domain_from_pseudo([(0.5 + 0j, 0.25)], truncation_R=0.999).save(dom_path)
    assert main([a.format(dom=dom_path) for a in argv]) == 2
    err = capsys.readouterr().err
    assert "1 - K^-jmax rounds to 1" in err and f"jmax={argv[-1]}" in err


@pytest.mark.parametrize("command", ["measure", "sandwich", "barrier"])
@pytest.mark.parametrize("start", ["nan,0", "0,inf"])
def test_a_non_finite_start_exits_2(tmp_path, capsys, command, start):
    dom_path = tmp_path / "one.json"
    ch.domain_from_pseudo([(0.5 + 0j, 0.25)], truncation_R=1.0).save(dom_path)
    argv = [command, "--domain", str(dom_path), "--start", start]
    assert main(argv + (["--walks", "10"] if command == "measure" else [])) == 2
    assert "lies outside the open unit disk" in capsys.readouterr().err


def test_an_unknown_ring_key_is_named(capsys):
    assert main(["diag", "--ring", "q=0.5,depth=2,scael=2,pts=3", "--seed", "1"]) == 2
    assert "no key named pts, scael" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["theorem2", "--r-list", "0.9", "--walks", "200", "--max-probes", "2"],
    ["dichotomy-sweep", "--profile", "expinv:1,1", "--truncations", "0.875", "--walks", "300"],
    ["diag", "--probe-modulus", "0.8"],
    ["density", "--r-list", "0.8,0.9"],
], ids=lambda argv: argv[0])
def test_a_generated_sequence_and_its_walks_share_one_recorded_seed(tmp_path, argv):
    # without --seed the CLI draws one seed, for the sequence and the walks
    # alike, and records it: a re-run with the recorded seed reproduces the
    # result
    argv = argv + ["--ring", "q=0.5,scale=1,depth=4"]
    draws = iter([101, 202, 303])
    with mock.patch.object(cli.secrets, "randbits", side_effect=lambda bits: next(draws)) as draw:
        assert main(argv + ["-o", str(tmp_path / "drawn.json")]) == 0
    assert draw.call_count == 1
    drawn = _validate(tmp_path / "drawn.json")
    assert drawn["config"]["seed"] == 101
    assert main(argv + ["--seed", "101", "-o", str(tmp_path / "again.json")]) == 0
    again = _validate(tmp_path / "again.json")
    assert again["config"] == drawn["config"]
    assert _timeless(again["result"]) == _timeless(drawn["result"])


def test_build_domain_writes_the_domain_file_text(tmp_path):
    seq_path = tmp_path / "seq.json"
    out = tmp_path / "dom.json"
    assert main(["gen-seq", "--ring", "q=0.5,scale=2,depth=5", "--seed", "3",
                 "-o", str(seq_path)]) == 0
    assert main(["build-domain", "--seq", str(seq_path), "--profile", "power:0.05,2",
                 "--truncation", "0.95", "-o", str(out)]) == 0
    dom = ch.build_champagne(ch.load_sequence(seq_path), ch.parse_profile("power:0.05,2"), 0.95)
    dom.save(tmp_path / "saved.json")
    assert out.read_bytes() == (tmp_path / "saved.json").read_bytes()


def test_config_file_fills_flags_with_defaults(tmp_path):
    dom_path = tmp_path / "one.json"
    ch.domain_from_pseudo([(0.5 + 0j, 0.25)]).save(dom_path)
    cfg = tmp_path / "run.conf"
    cfg.write_text("walks = 500\nseed = 3\n")
    out = tmp_path / "est.json"
    assert main(["measure", "--domain", str(dom_path), "--config", str(cfg),
                 "-o", str(out)]) == 0
    data = _validate(out)
    assert data["result"]["n_walks"] == 500
    assert data["config"]["walks"] == 500
    # a flag on the command line beats the file
    assert main(["measure", "--domain", str(dom_path), "--config", str(cfg),
                 "--walks", "600", "-o", str(out)]) == 0
    assert _validate(out)["result"]["n_walks"] == 600
    cfg.write_text("bogus = 1\n")
    assert main(["measure", "--domain", str(dom_path), "--config", str(cfg),
                 "-o", str(out)]) == 2


# every subcommand's option dests: --config keys are checked against these
_FLAGS = {
    "gen-seq": "config out ring seed",
    "diag": "config grid_density out probe_modulus ring seed seq",
    "density": "config grid_density out r_list ring seed seq",
    "criterion": "config jmax k out profile",
    "build-domain": "config out profile ring seed seq truncation",
    "measure": "config domain epsilon out seed start target threads walks",
    "sandwich": "config domain out start",
    "layered": "config domain epsilon grid_points jmax k out seed threads walks",
    "barrier": "config domain eta out samples start",
    "theorem2": "config csv epsilon max_probes out r_list ring seed seq threads walks",
    "dichotomy-sweep": "config epsilon out profile ring seed seq start threads truncations walks",
}


def test_a_config_file_key_given_twice_exits_2(tmp_path, capsys):
    # grid-density and grid_density name one flag
    cfg = tmp_path / "run.conf"
    cfg.write_text("grid-density = 3\ngrid_density = 5\n")
    assert main(["diag", "--ring", "q=0.5,depth=2", "--seed", "1", "--config", str(cfg)]) == 2
    assert "key grid_density given twice" in capsys.readouterr().err


_ROUND_TRIPS = [
    ["gen-seq", "--ring", "q=0.5,scale=1,depth=3", "--seed", "3"],
    ["diag", "--ring", "q=0.5,scale=2,depth=4", "--probe-modulus", "0.8",
     "--grid-density", "3", "--seed", "3"],
    ["density", "--seq", "{seq}", "--r-list", "0.8,0.9"],
    ["criterion", "--profile", "expinv:1,1", "--k", "3"],
    ["measure", "--domain", "{dom}", "--start", "0.1,0", "--walks", "500", "--seed", "4"],
    ["sandwich", "--domain", "{dom}"],
    ["layered", "--domain", "{dom}", "--jmax", "2", "--walks", "200", "--grid-points", "8",
     "--seed", "3"],
    ["barrier", "--domain", "{dom}", "--eta", "0.6"],
    ["theorem2", "--seq", "{seq}", "--r-list", "0.9", "--walks", "300", "--max-probes", "2",
     "--seed", "5"],
    ["dichotomy-sweep", "--seq", "{seq}", "--profile", "expinv:1,1", "--truncations", "0.875",
     "--walks", "300", "--seed", "9"],
]


@pytest.mark.parametrize("argv", _ROUND_TRIPS, ids=lambda argv: argv[0])
def test_an_artifact_config_reruns_its_command(tmp_path, argv):
    # the recorded config, written back as a --config file beside the
    # required flags, re-runs the command to the same config and result
    seq_path, dom_path = tmp_path / "seq.json", tmp_path / "dom.json"
    assert main(["gen-seq", "--ring", "q=0.5,scale=1,depth=4", "--seed", "2",
                 "-o", str(seq_path)]) == 0
    assert main(["build-domain", "--seq", str(seq_path), "--profile", "power:0.05,2",
                 "--truncation", "0.9", "-o", str(dom_path)]) == 0
    argv = [a.format(seq=seq_path, dom=dom_path) for a in argv]
    command = argv[0]
    # gen-seq's -o is the sequence; its envelope sits beside it
    suffix = ".meta.json" if command == "gen-seq" else ""
    assert main(argv + ["-o", str(tmp_path / "first.json")]) == 0
    first = _validate(str(tmp_path / "first.json") + suffix)
    assert first["command"] == command
    assert set(first["config"]) <= set(_FLAGS[command].split()) - {"config", "out"}
    cfg = tmp_path / "run.conf"
    cfg.write_text("".join(f"{k} = {v}\n" for k, v in first["config"].items()))
    _, subcommands = build_parser()
    required = [arg for a in subcommands[command]._actions if a.required
                for arg in (a.option_strings[-1], str(first["config"][a.dest]))]
    assert main([command, *required, "--config", str(cfg),
                 "-o", str(tmp_path / "again.json")]) == 0
    again = _validate(str(tmp_path / "again.json") + suffix)
    assert again["config"] == first["config"]
    assert _timeless(again["result"]) == _timeless(first["result"])


def test_readme_cli_block_parses_and_reads_only_files_it_writes():
    # each command of the README's CLI block parses, and each --seq or
    # --domain it reads is the -o of an earlier line
    readme = os.path.join(os.path.dirname(__file__), os.pardir, "README.md")
    with open(readme, encoding="utf-8") as fh:
        text = fh.read()
    block = text.split("## CLI", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    lines = block.replace("\\\n", " ").splitlines()
    assert lines and all(line.startswith("champagne ") for line in lines)
    parser, _ = build_parser()
    written = set()
    for line in lines:
        args = parser.parse_args(shlex.split(line)[1:])
        for source in (getattr(args, "seq", None), getattr(args, "domain", None)):
            assert source is None or source in written, line
        written.add(args.out)


def test_subcommand_flags_are_pinned():
    _, subcommands = build_parser()
    got = {name: " ".join(sorted(a.dest for a in sp._actions
                                 if a.option_strings and a.dest != "help"))
           for name, sp in subcommands.items()}
    assert got == _FLAGS


def test_seed_dir_env(tmp_path, monkeypatch):
    seed_dir = tmp_path / "seeds"
    seed_dir.mkdir()
    (seed_dir / "default_seed").write_text("12345\n")
    monkeypatch.setenv("CHAMPAGNE_SEED_DIR", str(seed_dir))
    seq_path = tmp_path / "seq.json"
    assert main(["gen-seq", "--ring", "q=0.5,scale=1,depth=2", "-o", str(seq_path)]) == 0
    meta = json.loads((tmp_path / "seq.json.meta.json").read_text())
    assert meta["config"]["seed"] == 12345


def test_seed_dir_non_integer_seed_exits_2(tmp_path, monkeypatch, capsys):
    seed_dir = tmp_path / "seeds"
    seed_dir.mkdir()
    monkeypatch.setenv("CHAMPAGNE_SEED_DIR", str(seed_dir))
    for content in (b"twelve\n", b"\xff\xfe12\n"):   # the second is not UTF-8
        (seed_dir / "default_seed").write_bytes(content)
        assert main(["gen-seq", "--ring", "q=0.5,scale=1,depth=2"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and str(seed_dir / "default_seed") in err


def test_measure_schema_requires_every_estimate_field():
    # the benchmark rebuilds a MeasureEstimate from a measure artifact
    measure = next(case["then"]["properties"]["result"] for case in _load_schema()["allOf"]
                   if case["if"]["properties"]["command"] == {"const": "measure"})
    assert measure["required"] == [f.name for f in dataclasses.fields(ch.MeasureEstimate)]


@pytest.mark.parametrize("command", ["measure", "criterion", "dichotomy-sweep"])
def test_an_artifact_result_is_the_library_report(tmp_path, command):
    # re-run in process with the recorded seed, the library calls give the
    # artifact's result, wall times aside
    seq_path, dom_path = tmp_path / "seq.json", tmp_path / "dom.json"
    assert main(["gen-seq", "--ring", "q=0.5,scale=2,depth=6", "--seed", "2",
                 "-o", str(seq_path)]) == 0
    assert main(["build-domain", "--seq", str(seq_path), "--profile", "power:0.1,2",
                 "--truncation", "0.9", "-o", str(dom_path)]) == 0
    argv = {
        "measure": ["--domain", str(dom_path), "--start", "0.1,0", "--walks", "500"],
        "criterion": ["--profile", "power:0.1,2", "--jmax", "300"],
        "dichotomy-sweep": ["--seq", str(seq_path), "--profile", "power:0.1,2",
                            "--truncations", "0.75,0.984375", "--walks", "300"],
    }[command]
    out = tmp_path / "out.json"
    assert main([command, *argv, "-o", str(out)]) == 0
    data = _validate(out)
    seed = data["config"].get("seed")
    profile = ch.parse_profile("power:0.1,2")
    if command == "measure":
        report = ch.estimate_measure(ch.ChampagneDomain.load(dom_path), 0.1, n_walks=500,
                                     seed=seed)
    elif command == "criterion":
        report = {"integral": ch.criterion_integral(profile),
                  "sum": ch.criterion_sum(profile, J_max=300)}
    else:
        seq = ch.load_sequence(seq_path)
        doms = [ch.build_champagne(seq, profile, R) for R in (0.75, 0.984375)]
        doms[0].build_index(doms[1].index.n_side)   # the deeper rung's default grid
        report = {"rows": [{"truncation_R": dom.truncation_R, "n_bubbles": dom.n_bubbles,
                            "tail_sum_points": dom.tail_sum_points,
                            "circumference_sum": dom.circumference_sum,
                            "measure": ch.estimate_measure(dom, 0j, n_walks=300, seed=seed),
                            "sandwich": ch.sandwich_bounds(dom)} for dom in doms],
                  "profile": "power:0.1,2"}
    want = json.loads(json.dumps(cli._jsonify(report)))
    assert _timeless(data["result"]) == _timeless(want)


def test_every_sweep_rung_walks_on_one_grid_built_once(tmp_path, monkeypatch):
    # the rung with the most bubbles lends its default grid to every rung,
    # so that the common seed couples the rungs; each rung's grid is built
    # once
    seq_path = tmp_path / "seq.json"
    assert main(["gen-seq", "--ring", "q=0.5,scale=2,depth=6", "--seed", "2",
                 "-o", str(seq_path)]) == 0
    seq, profile = ch.load_sequence(seq_path), ch.parse_profile("power:0.1,2")
    n_side = ch.build_champagne(seq, profile, 0.984375).index.n_side
    assert ch.build_champagne(seq, profile, 0.75).index.n_side < n_side
    built, walked = [], []

    class Recorded(spatial.DiskGridIndex):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            built.append(self.n_side)

    chunk = walker._walk_chunk

    def recorded_chunk(domain, *args):
        walked.append((domain.n_bubbles, domain.index.n_side))
        return chunk(domain, *args)

    monkeypatch.setattr(domains, "DiskGridIndex", Recorded)
    monkeypatch.setattr(walker, "_walk_chunk", recorded_chunk)
    assert main(["dichotomy-sweep", "--seq", str(seq_path), "--profile", "power:0.1,2",
                 "--truncations", "0.75,0.984375,0.875", "--walks", "200", "--seed", "3",
                 "-o", str(tmp_path / "sweep.json")]) == 0
    assert built == [n_side] * 3
    assert walked == [(12, n_side), (252, n_side), (28, n_side)]
