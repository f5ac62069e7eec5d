import contextlib
import io
import json
import os
import subprocess
import sys
import time

import pytest

from rhosplit.cli import run


def invoke(argv):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = run(argv)
    return code, buf.getvalue()


def invoke_json(argv):
    code, out = invoke(argv)
    return code, json.loads(out) if out else None


def test_partition_command():
    code, rep = invoke_json(["partition", "--count", "4"])
    assert code == 0
    assert rep["sizes"] == ["2", "5", "29", "289"]
    assert rep["growth"] == "ok"


def test_density_exact_half():
    code, rep = invoke_json([
        "density", "--S", "prog(0,2)", "--X", "omega",
        "--horizon", "1000000", "--kind", "rho", "--rho", "1/2",
    ])
    assert code == 0
    assert rep["verdict"]["holds_numerically"] is True
    assert rep["verdict"]["diagnostics"]["max_tail_deviation"] == "0"


def test_density_failing_verdict_exits_one():
    code, _ = invoke_json([
        "density", "--S", "prog(0,4)", "--X", "omega",
        "--horizon", "100000", "--kind", "rho", "--rho", "1/2",
    ])
    assert code == 1


def test_module_runs_as_a_script():
    import rhosplit

    src = os.path.dirname(os.path.dirname(rhosplit.__file__))
    proc = subprocess.run(
        [sys.executable, "-m", "rhosplit.cli", "partition", "--count", "2"],
        env=dict(os.environ, PYTHONPATH=src), capture_output=True, text=True,
        timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["sizes"] == ["2", "5"]


@pytest.mark.parametrize("eps", ["1e-10000000", ".25", " 1/4"])
def test_rational_option_takes_only_digits_p_over_q_or_a_decimal(eps):
    err = io.StringIO()
    start = time.perf_counter()
    # Fraction would build 10**10000000 for the exponent before any check
    with contextlib.redirect_stderr(err), pytest.raises(SystemExit) as exc:
        run(["density", "--S", "prog(0,2)", "--kind", "eps_band", "--eps", eps])
    assert time.perf_counter() - start < 1
    assert exc.value.code == 2
    assert "not a rational p/q or decimal" in err.getvalue()


@pytest.mark.parametrize("S", [
    "every(diff(prog(0,1),prog(0,1)),2)",
    "inter(every(diff(prog(0,1),prog(0,1)),2),omega)",
])
def test_adversary_refuses_a_finite_S(S):
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code, out = invoke(["adversary", "--S", S, "--epsilon", "1/4",
                            "--rounds", "1"])
    assert (code, out) == (2, "")
    assert err.getvalue() == "error: S is finite-flagged; an infinite set is required\n"


def _usage_error(argv):
    err = io.StringIO()
    with contextlib.redirect_stderr(err), pytest.raises(SystemExit) as exc:
        run(argv)
    return exc.value.code, err.getvalue()


def test_one_parser_serves_every_run(monkeypatch):
    # the parser is built once per process; a parse leaves nothing behind
    # that a later run could see
    import rhosplit

    monkeypatch.setenv("COLUMNS", "80")  # argparse wraps usage to it
    argv = ["escape", "--chain", "centred", "--eps", "1/10"]
    first = _usage_error(argv)
    assert invoke(["partition", "--count", "2"])[0] == 0
    assert _usage_error(["density", "--S", "prog(0,2)", "--horizon", "x"])[0] == 2
    assert _usage_error(argv) == first
    src = os.path.dirname(os.path.dirname(rhosplit.__file__))
    proc = subprocess.run([sys.executable, "-m", "rhosplit.cli", *argv],
                          env=dict(os.environ, PYTHONPATH=src), capture_output=True,
                          text=True, timeout=60)
    assert (proc.returncode, proc.stdout) == (2, "")
    assert first == (2, proc.stderr)


def test_density_usage_error_exits_two():
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(io.StringIO()):
        code = run(["density", "--S", "prog(0,2)",
                    "--X", "inter(prog(0,2),prog(1,2))", "--horizon", "1000"])
    assert code == 2


def test_adversary_emits_and_verifies(tmp_path):
    code, rep = invoke_json([
        "adversary", "--S", "prog(0,2)", "--epsilon", "1/4", "--rounds", "3",
    ])
    assert code == 0
    assert len(rep["certificates"]) == 3
    assert rep["verified"] is True
    path = tmp_path / "certs.json"
    path.write_text(json.dumps(rep["certificates"]))
    code2, rep2 = invoke_json(["verify-cert", "--input", str(path)])
    assert code2 == 0
    assert all(r["ok"] for r in rep2["results"])


def test_verify_cert_rejects_tampered(tmp_path):
    _, rep = invoke_json([
        "adversary", "--S", "prog(0,2)", "--epsilon", "1/4", "--rounds", "1",
    ])
    cert = rep["certificates"][0]
    cert["cardinalities"]["s_in_interval"] = str(
        int(cert["cardinalities"]["s_in_interval"]) + 1
    )
    path = tmp_path / "bad.json"
    path.write_text(json.dumps([cert]))
    code, rep2 = invoke_json(["verify-cert", "--input", str(path)])
    assert code == 1
    assert not rep2["results"][0]["ok"]


def test_verify_cert_rejects_negative_index(tmp_path):
    _, rep = invoke_json([
        "adversary", "--S", "prog(0,2)", "--epsilon", "1/4", "--rounds", "1",
    ])
    cert = rep["certificates"][0]
    cert["index"] = -1
    cert["boundaries"] = []
    path = tmp_path / "negative.json"
    path.write_text(json.dumps([cert]))
    code, rep2 = invoke_json(["verify-cert", "--input", str(path)])
    assert code == 1
    assert rep2["results"] == [{"kind": cert["kind"], "index": -1, "ok": False,
                                "reason": "negative interval index"}]


def _seeded_cert():
    _, rep = invoke_json([
        "adversary", "--S", "prog(0,2)", "--epsilon", "1/4", "--rounds", "1",
    ])
    return rep["certificates"][0]


def _verify_cert_file(tmp_path, certs):
    path = tmp_path / "certs.json"
    path.write_text(json.dumps(certs))
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code, rep = invoke_json(["verify-cert", "--input", str(path)])
    return code, rep, err.getvalue()


def test_verify_cert_rejects_a_huge_index(tmp_path):
    # 2 ** index must never be built from an untrusted index: the growth
    # law bounds every honest index by the bit length of |I_n|
    cert = _seeded_cert()
    cert["index"] = 20000
    cert["boundaries"] = []
    code, rep, err = _verify_cert_file(tmp_path, [cert])
    assert (code, err) == (1, "")
    assert rep["results"] == [{
        "kind": cert["kind"], "index": 20000, "ok": False,
        "reason": "interval index too large for the interval size"}]


def test_verify_cert_names_the_mismatched_step_side(tmp_path):
    cert = _seeded_cert()
    cert["steps"][1]["rhs"] = "1/1"
    code, rep, _ = _verify_cert_file(tmp_path, [cert])
    assert code == 1
    assert rep["results"][0]["reason"] == \
        "step 1 disagrees with recomputation at its rhs"


def test_verify_cert_rejects_growth_broken_past_the_index(tmp_path):
    cert = _seeded_cert()
    last = int(cert["boundaries"][-1])
    cert["boundaries"].append(str(last + 1))  # |I_{n+2}| = 1
    code, rep, _ = _verify_cert_file(tmp_path, [cert])
    assert code == 1
    n = cert["index"]
    assert rep["results"][0]["reason"] == f"growth violated at interval {n + 1}"


@pytest.mark.parametrize("field,value", [
    ("cardinalities", []), ("steps", 5), ("conclusion", []),
    # a kind that is not a string is malformed, not an unknown kind
    ("kind", []), ("kind", {}), ("kind", 5),
])
def test_verify_cert_bad_shape_is_a_usage_error(tmp_path, field, value):
    cert = _seeded_cert()
    cert[field] = value
    code, rep, err = _verify_cert_file(tmp_path, [cert])
    assert (code, rep) == (2, None)
    assert err.startswith("error: malformed certificate: ")


@pytest.mark.parametrize("path", [("steps", 0, "rel"), ("conclusion", "rel")])
@pytest.mark.parametrize("value", [[">="], {}, 5, None])
def test_verify_cert_non_string_relation_is_a_usage_error(tmp_path, path, value):
    cert = _seeded_cert()
    *outer, key = path
    node = cert
    for k in outer:
        node = node[k]
    node[key] = value
    code, rep, err = _verify_cert_file(tmp_path, [cert])
    assert (code, rep) == (2, None)
    assert err.startswith("error: malformed certificate: rel must be a string: ")


def test_verify_cert_non_object_entry_is_a_usage_error(tmp_path):
    code, rep, err = _verify_cert_file(tmp_path, [[]])
    assert (code, rep) == (2, None)
    assert err.startswith("error: malformed certificate: ")


def _centred_cert():
    _, rep = invoke_json([
        "escape", "--chain", "centred", "--eps", "1/10",
        "--eps-prime", "1/5", "--index", "4",
    ])
    return rep["certificate"]


@pytest.mark.parametrize("path,value", [
    (("index",), 4.9),
    (("index",), True),
    (("cardinalities", "escape_count"), 2601.4),
    (("cardinalities", "x_count"), "2_765"),
    (("boundaries", 1), False),
])
def test_verify_cert_integers_are_ints_or_digit_strings(tmp_path, path, value):
    cert = _centred_cert()
    *outer, key = path
    node = cert
    for k in outer:
        node = node[k]
    node[key] = value
    code, rep, err = _verify_cert_file(tmp_path, [cert])
    assert (code, rep) == (2, None)
    assert err.startswith("error: malformed certificate: not an exact integer: ")


@pytest.mark.parametrize("field,value", [
    ("boundaries", "02736325"),
    ("boundaries", {"0": 1, "2": 1, "7": 1, "36": 1, "325": 1}),
    ("cardinalities", [["prefix_count", "7"]]),
])
def test_verify_cert_refuses_a_wrong_container(tmp_path, field, value):
    # tuple() of a digit string or a dict would read its digits or keys
    cert = _seeded_cert()
    cert[field] = value
    code, rep, err = _verify_cert_file(tmp_path, [cert])
    assert (code, rep) == (2, None)
    assert err == ("error: malformed certificate: "
                   "cardinalities must be an object and boundaries a list\n")


def test_verify_cert_refuses_truncated_floats(tmp_path):
    # int() would truncate each of these to the honest count and verify
    cert = _centred_cert()
    cert["index"] += 0.9
    cert["cardinalities"] = {k: int(v) + 0.4 for k, v in cert["cardinalities"].items()}
    code, rep, err = _verify_cert_file(tmp_path, [cert])
    assert (code, rep) == (2, None)
    assert err.startswith("error: malformed certificate: ")
    cert = _centred_cert()
    cert["cardinalities"] = {k: int(v) for k, v in cert["cardinalities"].items()}
    code, rep, _ = _verify_cert_file(tmp_path, [cert])
    assert code == 0 and rep["results"][0]["ok"]


def test_escape_commands():
    code, rep = invoke_json([
        "escape", "--chain", "centred", "--eps", "1/10",
        "--eps-prime", "1/5", "--index", "4",
    ])
    assert code == 0 and rep["verified"]
    assert rep["thresholds"] == {"n0": 4, "k0": 3}
    code, rep = invoke_json([
        "escape", "--chain", "slalom", "--eps", "1/10",
        "--eps-prime", "1/5", "--index", "3",
    ])
    assert code == 0 and rep["verified"]


def test_preserve_roundtrip(tmp_path):
    code, rep = invoke_json([
        "preserve", "--op", "reap-map", "--S", "bern(1/2,11)",
        "--horizon-k", "6",
    ])
    assert code == 0
    pair_path = tmp_path / "pair.json"
    pair_path.write_text(json.dumps(rep["pair"]))
    code, rep2 = invoke_json([
        "preserve", "--op", "witness-below", "--pair", str(pair_path),
        "--horizon-k", "6",
    ])
    assert code == 0 and rep2["rel_holds"]
    code, rep3 = invoke_json([
        "preserve", "--op", "rel", "--X", "prog(0,2)",
        "--pair", str(pair_path), "--n", "3", "--horizon-k", "6",
    ])
    assert code == 0


@pytest.mark.parametrize("ks,expected", [
    ([], list(range(1, 10))),  # an empty H still means {1, 2, ...}
    ([0, 3], [0] + list(range(3, 10))),
])
def test_loaded_pair_H_is_listed_indices_then_all(ks, expected):
    from rhosplit import GoodPair, build_partition

    pair = GoodPair.from_json(build_partition("minimal", 4),
                              {"eps": "1/4", "H": ks}, 6)
    assert [k for k in range(10) if pair.H.contains(k)] == expected


def test_loaded_pair_H_far_past_the_horizon_is_not_built(tmp_path):
    # no check reads H at or above horizon_k, so an index far past it
    # changes no output and builds no bit (10^12 bits would be 125 GB)
    from rhosplit import GoodPair, build_partition

    outs = []
    for K in (3, 10 ** 12):
        path = tmp_path / f"pair{K}.json"
        path.write_text(json.dumps({"eps": "1/4", "H": [K]}))
        outs.append(invoke(["preserve", "--op", "witness-below",
                            "--pair", str(path), "--horizon-k", "3"]))
    assert outs[0][0] == 0 and outs[0] == outs[1]
    pair = GoodPair.from_json(build_partition("minimal", 4),
                              {"eps": "1/4", "H": [10 ** 12]}, 3)
    assert pair.H.prefix.shape[0] <= 3


@pytest.mark.parametrize("payload", [
    [1],  # a list where the pair object belongs
    {"eps": "1/4", "H": [0], "guards": [1]},  # a list where the guard map belongs
    {"eps": "1/4", "H": [0], "guards": {"0": "x"}},  # a string where a guard belongs
])
def test_loaded_pair_of_a_wrong_shape_is_a_usage_error(tmp_path, payload):
    path = tmp_path / "pair.json"
    path.write_text(json.dumps(payload))
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code, out = invoke(["preserve", "--op", "witness-below",
                            "--pair", str(path)])
    assert (code, out) == (2, "")
    assert err.getvalue().startswith("error: malformed pair: ")


@pytest.mark.parametrize("key,index", [
    ("1000000", 1000000),  # a guard far past the horizon
    ("0", 1000000),  # a guard whose interval is far past it
    ("6", 6),  # the first guard that no check reads
])
def test_loaded_pair_guard_at_or_above_the_horizon_is_malformed(tmp_path, key, index):
    # the boundaries of interval K grow like 2^(K^2/2): the bound is
    # checked before any is built
    path = tmp_path / "pair.json"
    path.write_text(json.dumps({"eps": "1/4", "H": [0],
                                "guards": {key: {"index": index, "kind": "full"}}}))
    err = io.StringIO()
    start = time.perf_counter()
    with contextlib.redirect_stderr(err):
        code, out = invoke(["preserve", "--op", "witness-below", "--pair", str(path),
                            "--horizon-k", "6"])
    assert time.perf_counter() - start < 1
    assert (code, out) == (2, "")
    assert err.getvalue() == (f"error: malformed pair: guard {key} (interval {index})"
                              " is not below horizon_k 6\n")


@pytest.mark.parametrize("H", [["a"], [1.5], 5, [-1], [True]])
def test_loaded_pair_H_must_list_naturals(tmp_path, H):
    path = tmp_path / "pair.json"
    path.write_text(json.dumps({"eps": "1/4", "H": H}))
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code, out = invoke(["preserve", "--op", "witness-below",
                            "--pair", str(path)])
    assert (code, out) == (2, "")
    assert err.getvalue().startswith(
        "error: pair H must be a list of non-negative integers")


def test_preserve_witness_above():
    code, rep = invoke_json([
        "preserve", "--op", "witness-above", "--X", "prog(0,2)",
        "--horizon-k", "6",
    ])
    assert code == 0 and rep["rel_holds"]


def test_transform_small_run():
    code, rep = invoke_json([
        "transform", "--direction", "half-to-rho", "--rho", "7/16",
        "--depth", "4", "--horizon", "200000", "--seed", "1",
    ])
    assert code == 0
    assert rep["result"]["selection"] == [2, 3, 4]


def test_relsys_gallery_and_fact54():
    code, rep = invoke_json(["relsys", "--gallery", "reap"])
    assert code == 0 and rep["bounding"] >= 2
    code, rep = invoke_json(["relsys", "--fact54", "--max-window", "10"])
    assert code == 0 and rep["fact54"]["zero_splits"]


def test_relsys_random_duality():
    code, rep = invoke_json(["relsys", "--random", "20", "--seed", "9"])
    assert code == 0 and rep["duality_ok"]


@pytest.mark.parametrize("argv", [
    ["density", "--S", "prog(0,2)", "--X", "omega", "--horizon", "100000",
     "--kind", "rho", "--rho", "1/2"],
    ["adversary", "--S", "bern(1/2,3)", "--epsilon", "1/10", "--rounds", "3"],
    ["transform", "--direction", "half-to-rho", "--rho", "3/5",
     "--depth", "4", "--horizon", "200000", "--seed", "2"],
    ["relsys", "--random", "10", "--seed", "4"],
    ["partition", "--count", "8", "--even-sizes"],
])
def test_repeated_runs_byte_identical(argv):
    code1, out1 = invoke(argv)
    code2, out2 = invoke(argv)
    assert (code1, out1) == (code2, out2)
    assert out1  # non-empty report


def test_density_prefix_rle():
    code, rep = invoke_json([
        "density", "--S", "prog(0,2)", "--X", "omega",
        "--horizon", "1000", "--prefix", "9",
    ])
    assert code == 0
    # bits 101010101: a zero-length leading zero-run then nine 1-runs
    assert rep["prefix"] == {"horizon": 9, "rle": [0] + [1] * 9}


def test_horizon_cap_env_override(monkeypatch):
    from rhosplit.omega_sets import BernoulliSet, HorizonOverflowError
    from fractions import Fraction

    monkeypatch.setenv("RHOSPLIT_HORIZON_CAP", "1000")
    s = BernoulliSet(Fraction(1, 2), 4)
    with pytest.raises(HorizonOverflowError):
        s.count_below(2000)
    assert s.count_below(500) >= 0


# horizons below and above 2^18, where sparse enumeration stops
@pytest.mark.parametrize("horizon", ["2000", "300000"])
def test_transform_beyond_the_cap_is_a_usage_error(monkeypatch, horizon):
    monkeypatch.setenv("RHOSPLIT_HORIZON_CAP", "1000")
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code, out = invoke(["transform", "--direction", "half-to-rho", "--rho", "1/4",
                            "--depth", "2", "--horizon", horizon])
    assert (code, out) == (2, "")
    assert err.getvalue() == (f"error: explicit horizon {horizon} exceeds cap 1000; "
                              "use the interval-symbolic form\n")


def test_output_modes():
    for mode in ("json", "csv", "pretty"):
        code, out = invoke(["--output", mode, "partition", "--count", "3"])
        assert code == 0 and out


def test_csv_is_flat():
    _, out = invoke(["--output", "csv", "partition", "--count", "3"])
    for line in out.strip().splitlines():
        assert "," in line


@pytest.mark.parametrize("text,signature", [
    ("inter(3,omega)", "inter(set,set)"), ("prog(omega,2)", "prog(int,int)"),
    ("bern(omega,1)", "bern(rational,int)"), ("every(3,2)", "every(set,int,int?)"),
    ("prog(1/2,3)", "prog(int,int)"), ("bern(1/2,1/3)", "bern(rational,int)"),
    ("bern(1/0,1)", "bern(rational,int)"),
])
def test_density_ill_typed_descriptor_is_a_usage_error(text, signature):
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code, out = invoke(["density", "--S", text, "--horizon", "1000"])
    assert (code, out, err.getvalue()) == (
        2, "", f"error: bad arguments: expected {signature}\n")


@pytest.mark.parametrize("argv,flag", [
    (["relsys"], "--file"),
    (["preserve", "--op", "rel", "--X", "omega"], "--pair"),
    (["preserve", "--op", "witness-below"], "--pair"),
    (["preserve", "--op", "nwd-escape", "--X", "omega"], "--pair"),
    (["preserve", "--op", "witness-above"], "--X"),
    (["preserve", "--op", "reap-map"], "--S"),
    (["density", "--S", "prog(0,2)", "--horizon", "100", "--kind", "rho"], "--rho"),
    (["density", "--S", "prog(0,2)", "--horizon", "100", "--kind", "eps_band"], "--eps"),
])
def test_missing_mode_input_is_a_usage_error(argv, flag):
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code, out = invoke(argv)
    assert (code, out) == (2, "")
    assert err.getvalue().startswith("error: ") and flag in err.getvalue()


@pytest.mark.parametrize("path,value", [
    (("eps",), "1e-1000000"),  # Fraction would build 10**1000000
    (("eps",), "1/0"),
    (("eps",), 0.25),  # a binary double, not an exact rational
    (("eps_prime",), "1/0"),
    (("steps", 0, "rhs"), "1/0"),
    (("steps", 1, "lhs"), "1e-5"),
    (("conclusion", "bound"), "0.25"),
    # an eps_prime is absent, null or a "p/q" string; a falsy value of
    # another type is malformed, not "no eps_prime"
    (("eps_prime",), 0),
    (("eps_prime",), ""),
    (("eps_prime",), False),
    (("eps_prime",), []),
    (("eps_prime",), {}),
])
def test_verify_cert_untrusted_rational_is_a_usage_error(tmp_path, path, value):
    cert = _seeded_cert()
    *outer, key = path
    node = cert
    for k in outer:
        node = node[k]
    node[key] = value
    code, rep, err = _verify_cert_file(tmp_path, [cert])
    assert (code, rep) == (2, None)
    assert err.startswith("error: malformed certificate: ")


@pytest.mark.parametrize("eps", ["1/0", 0.25, "1e-5"])
def test_loaded_pair_eps_must_be_p_over_q(tmp_path, eps):
    path = tmp_path / "pair.json"
    path.write_text(json.dumps({"eps": eps, "H": [0]}))
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code, out = invoke(["preserve", "--op", "witness-below",
                            "--pair", str(path)])
    assert (code, out) == (2, "")
    assert err.getvalue().startswith("error: not an exact rational p/q: ")


@pytest.mark.parametrize("wrap", [
    lambda certs: certs[0],  # a single certificate object
    lambda certs: {"certificates": certs, "note": "beside the list"},
])
def test_verify_cert_payload_forms(tmp_path, wrap):
    _, rep = invoke_json([
        "adversary", "--S", "prog(0,2)", "--epsilon", "1/4", "--rounds", "2",
    ])
    certs = rep["certificates"]
    payload = wrap(certs)
    path = tmp_path / "payload.json"
    path.write_text(json.dumps(payload))
    code, rep2 = invoke_json(["verify-cert", "--input", str(path)])
    expected = certs if "certificates" in payload else certs[:1]
    assert code == 0
    assert rep2["results"] == [{"kind": c["kind"], "index": c["index"],
                                "ok": True, "reason": None} for c in expected]


def test_preserve_nwd_escape_flips_the_relation(tmp_path):
    _, rep = invoke_json([
        "preserve", "--op", "witness-above", "--X", "prog(0,2)",
        "--horizon-k", "6",
    ])
    pair_path = tmp_path / "pair.json"
    pair_path.write_text(json.dumps(rep["pair"]))
    code, rep2 = invoke_json([
        "preserve", "--op", "nwd-escape", "--X", "prog(0,2)",
        "--pair", str(pair_path), "--horizon-k", "6",
    ])
    assert code == 0
    assert (rep2["escape_at"], rep2["relation_flipped"]) == (2, True)
    code, rep3 = invoke_json([
        "preserve", "--op", "rel", "--X", "prog(0,2)",
        "--pair", str(pair_path), "--horizon-k", "6",
    ])
    assert code == 0 and rep3["holds"]


@pytest.mark.parametrize("gallery,bounding,dominating", [
    ("dom", 2, 2), ("reap", 2, 10), ("reap-rho", 3, 3),
])
def test_relsys_gallery_then_file(tmp_path, gallery, bounding, dominating):
    code, rep = invoke_json(["relsys", "--gallery", gallery])
    assert code == 0
    assert (rep["bounding"], rep["dominating"]) == (bounding, dominating)
    path = tmp_path / "system.json"
    path.write_text(json.dumps(rep["system"]))
    code, rep2 = invoke_json(["relsys", "--file", str(path)])
    assert code == 0
    assert (rep2["bounding"], rep2["dominating"]) == (bounding, dominating)
    # the dual swaps the two sides
    assert (rep2["dual"]["X"], rep2["dual"]["Y"]) == (rep["system"]["Y"],
                                                      rep["system"]["X"])


def test_partition_growth_factor():
    code, rep = invoke_json(["partition", "--partition", "factor:3/2",
                             "--count", "6"])
    assert code == 0 and rep["growth"] == "ok"
    sizes = [int(s) for s in rep["sizes"]]
    below = 0
    for n, size in enumerate(sizes):
        # at least 3/2 of the least size the growth law allows
        least = 2 if n == 0 else (1 << n) * below + 1
        assert 2 * size >= 3 * least
        below += size


def test_density_prefix_rle_roundtrip():
    import numpy as np
    from rhosplit.omega_sets import parse_set

    for S, n in [("prog(0,2)", 11), ("prog(1,2)", 11), ("omega", 5), ("prog(3,7)", 40),
                 ("bern(1/2,5)", 1000), ("pow(2)", 1)]:
        code, rep = invoke_json(["density", "--S", S, "--horizon", "100", "--prefix", str(n)])
        assert code == 0 and rep["prefix"]["horizon"] == n
        # runs alternate from a run of zeros, which alone may be empty
        runs = rep["prefix"]["rle"]
        assert sum(runs) == n and all(r > 0 for r in runs[1:])
        bits = np.repeat([i % 2 == 1 for i in range(len(runs))], runs)
        assert np.array_equal(bits, parse_set(S).materialize(n))


def test_density_prefix_requires_positive_horizon():
    for n in ("0", "-3"):
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            code, out = invoke(["density", "--S", "omega", "--prefix", n])
        assert (code, out) == (2, "")
        assert err.getvalue() == "error: prefix horizon must be at least 1\n"


def test_density_stride_below_one_is_a_usage_error():
    for stride in ("0", "-5"):
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            code, out = invoke(["density", "--S", "prog(0,2)", "--horizon", "100",
                                "--stride", stride])
        assert (code, out) == (2, "")
        assert err.getvalue() == "error: stride must be at least 1\n"


@pytest.mark.parametrize("guards", [
    {"0": {"index": 0.9, "kind": "full"}},  # a float index
    {"0": {"index": 0, "kind": "first", "s": 1.7}},  # a float run length
    {"1": {"index": 1, "kind": "explicit", "elements": [2, "3.0"]}},  # an element
    {"1": {"index": 1, "kind": "explicit", "elements": "23"}},  # elements not a list
    {" 1": {"index": 1, "kind": "full"}},  # a key that int() would accept
    {"0": {"index": -1, "kind": "full"}},  # a negative index
])
def test_loaded_pair_integers_are_exact(tmp_path, guards):
    path = tmp_path / "pair.json"
    path.write_text(json.dumps({"eps": "1/4", "H": [0, 1], "guards": guards}))
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code, out = invoke(["preserve", "--op", "witness-below", "--pair", str(path),
                            "--horizon-k", "3"])
    assert (code, out) == (2, "")
    assert err.getvalue().startswith("error: malformed pair: ")


def test_relsys_file_of_a_wrong_shape_is_a_usage_error(tmp_path):
    path = tmp_path / "system.json"
    path.write_text(json.dumps({"X": "ab", "Y": ["u", "v"], "rel": ["1x", "01"]}))
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code, out = invoke(["relsys", "--file", str(path)])
    assert (code, out) == (2, "")
    assert err.getvalue() == "error: malformed system: X must be a list of strings\n"


def test_relsys_file_of_the_empty_system_is_a_usage_error(tmp_path):
    # well formed, but no subset of X is left for the bounding number
    path = tmp_path / "system.json"
    path.write_text(json.dumps({"X": [], "Y": [], "rel": []}))
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code, out = invoke(["relsys", "--file", str(path)])
    assert (code, out) == (2, "")
    assert err.getvalue() == "error: X has no points\n"


def test_relsys_reap_rho_names_its_band():
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code, out = invoke(["relsys", "--gallery", "reap-rho", "--rho", "3/4"])
    assert (code, out) == (2, "")
    assert err.getvalue().startswith(
        "error: the reap-rho truncation at rho = 3/4 is degenerate: "
        "with the band rho ± 1/4 = [1/2, 1], ")


def invoke_err(argv):
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code, _ = invoke(argv)
    return code, err.getvalue()


def test_relsys_max_window_is_bounded():
    code, rep = invoke_json(["relsys", "--fact54", "--max-window", "16"])
    assert code == 0 and rep["fact54"]["zero_splits"]
    code, err = invoke_err(["relsys", "--fact54", "--max-window", "21"])
    assert code == 2 and "--max-window must be at most 20" in err


@pytest.mark.parametrize("k", ["-1", "0"])
def test_preserve_horizon_k_below_one_is_a_usage_error(tmp_path, k):
    path = tmp_path / "pair.json"
    path.write_text(json.dumps({"eps": "1/4", "H": [3]}))
    code, err = invoke_err(["preserve", "--op", "witness-below",
                            "--pair", str(path), "--horizon-k", k])
    assert code == 2 and "--horizon-k must be at least 1" in err


@pytest.mark.parametrize("direction", ["half-to-rho", "rho-to-half"])
@pytest.mark.parametrize("depth", ["0", "-1"])
def test_transform_depth_below_one_is_a_usage_error(direction, depth):
    # 3/4 at rho-to-half falls back and leaves a residual at any depth
    # below 1, which must not be what is reported
    code, err = invoke_err(["transform", "--direction", direction, "--rho", "3/4",
                            "--depth", depth, "--horizon", "1000"])
    assert code == 2 and "depth must be at least 1" in err


# the largest value whose report prints every boundary within the
# interpreter's 4300-digit limit on integer text, a value past it, and
# one whose work alone would not finish: each refused before any work
@pytest.mark.parametrize("argv, option, bound", [
    (["partition", "--count"], "--count", 169),
    (["preserve", "--op", "reap-map", "--S", "prog(0,2)", "--horizon-k"],
     "--horizon-k", 169),
    (["escape", "--chain", "slalom", "--eps", "1/10", "--eps-prime", "1/5",
      "--index"], "--index", 7),
    # a faster-growing partition prints up to b_128 only, so block 7,
    # which escapes at interval 128 and prints b_129, is past it
    (["escape", "--chain", "slalom", "--eps", "1/10", "--eps-prime", "1/5",
      "--partition", "factor:200000000000000", "--index"], "--index", 6),
    # the other commands print fewer boundaries but build every interval
    # of --count up front, at a cost growing about as count^3
    (["adversary", "--S", "prog(0,2)", "--epsilon", "1/10", "--count"], "--count", 169),
    (["escape", "--chain", "centred", "--eps", "1/10", "--eps-prime", "1/5",
      "--index", "4", "--count"], "--count", 169),
    (["preserve", "--op", "reap-map", "--S", "prog(0,2)", "--count"], "--count", 169),
])
def test_options_past_the_integer_text_limit_are_usage_errors(argv, option, bound):
    code, out = invoke(argv + [str(bound)])
    assert code == 0 and json.loads(out)
    for value in (bound + 1, 10 ** 7):
        t0 = time.perf_counter()
        code, err = invoke_err(argv + [str(value)])
        assert code == 2
        assert f"{option} must be at most {bound} for this partition" in err
        assert time.perf_counter() - t0 < 1


def test_integer_text_limit_off_keeps_the_default_bound():
    # with no limit on integer text, --count 800 would still build 800
    # intervals before the report, at a cost growing about as count^3
    argv = ["escape", "--chain", "centred", "--eps", "1/10", "--eps-prime", "1/5",
            "--index", "4", "--count", "800"]
    saved = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        code, err = invoke_err(argv)
    finally:
        sys.set_int_max_str_digits(saved)
    assert code == 2
    assert "--count must be at most 169 for this partition" in err


def test_unknown_partition_spec_is_a_usage_error():
    code, err = invoke_err(["partition", "--partition", "3/2"])
    assert code == 2 and "unknown partition spec '3/2'" in err


# a negative tolerance, a rho outside [0, 1] and a band width outside
# (0, 1/2) are refused, not judged: no verdict on them can hold
@pytest.mark.parametrize("argv, message", [
    (["transform", "--direction", "half-to-rho", "--rho", "1/3", "--depth", "4",
      "--horizon", "20000", "--family", "prog(0,3)", "--tolerance=-1/10"],
     "tolerance must be non-negative"),
    (["density", "--S", "prog(0,2)", "--horizon", "1000", "--kind", "rho",
      "--rho", "1/2", "--tolerance=-1/10"], "tolerance must be non-negative"),
    (["density", "--S", "prog(0,2)", "--horizon", "1000", "--kind", "rho",
      "--rho", "3"], "rho must lie in [0, 1]"),
    (["preserve", "--op", "witness-above", "--X", "prog(0,2)", "--eps=-1/10"],
     "eps must lie in (0, 1/2)"),
    (["preserve", "--op", "reap-map", "--S", "prog(0,2)", "--eps", "3"],
     "eps must lie in (0, 1/2)"),
])
def test_out_of_range_parameters_are_usage_errors(argv, message):
    code, err = invoke_err(argv)
    assert code == 2 and message in err


def test_rho_to_half_past_the_squaring_budget_is_a_usage_error():
    t0 = time.perf_counter()
    code, err = invoke_err(["transform", "--direction", "rho-to-half",
                            "--rho", f"{2 ** 70 - 1}/{2 ** 70}", "--horizon", "1000"])
    assert code == 2 and "more than 131072 bits" in err
    assert time.perf_counter() - t0 < 1


@pytest.mark.parametrize("eps", ["0", "1/2", "3", "-1/10"])
def test_loaded_pair_eps_must_be_a_proper_width(tmp_path, eps):
    path = tmp_path / "pair.json"
    path.write_text(json.dumps({"eps": eps, "H": [0]}))
    code, err = invoke_err(["preserve", "--op", "witness-below", "--pair", str(path)])
    assert code == 2 and "eps must lie in (0, 1/2)" in err


@pytest.mark.parametrize("op, n", [("rel", "-5"), ("nwd-escape", "-2")])
def test_preserve_negative_n_is_a_usage_error(tmp_path, op, n):
    _, rep = invoke_json(["preserve", "--op", "witness-above", "--X", "prog(0,2)"])
    path = tmp_path / "pair.json"
    path.write_text(json.dumps(rep["pair"]))
    code, err = invoke_err(["preserve", "--op", op, "--pair", str(path),
                            "--X", "prog(0,2)", "--n", n])
    assert code == 2 and f"n must be non-negative: {n}" in err


ROUND_ROBIN = ["transform", "--oracle", "round-robin", "--depth", "6", "--horizon", "50000"]


def test_transform_round_robin_on_a_single_target():
    code, rep = invoke_json(ROUND_ROBIN + ["--family", "prog(0,3)",
                                           "--direction", "half-to-rho", "--rho", "1/3"])
    assert code == 0
    assert [v["holds_numerically"] for v in rep["result"]["verdicts"]] == [True]


@pytest.mark.parametrize("argv, message", [
    (["--direction", "half-to-rho", "--rho", "1/3"],
     "round-robin needs a single-target family"),
    (["--family", "prog(0,3)", "--direction", "rho-to-half", "--rho", "1/3"],
     "rho-to-half needs an oracle with p = 1/3"),
])
def test_transform_round_robin_refusals(argv, message):
    code, err = invoke_err(ROUND_ROBIN + argv)
    assert code == 2 and message in err


def _nested(depth):
    """A descriptor of ``depth`` constructors, one inside the next."""
    return "compl(" * (depth - 1) + "prog(0,2)" + ")" * (depth - 1)


@pytest.mark.parametrize("surface", ["density", "transform", "pair"])
@pytest.mark.parametrize("depth, code", [(100, 0), (101, 2)])
def test_descriptor_nesting_is_bounded(tmp_path, surface, depth, code):
    # the bound, 100 constructors deep, runs; one more is refused
    text = _nested(depth)
    if surface == "density":
        argv = ["density", "--S", text, "--horizon", "1000"]
    elif surface == "transform":
        argv = ["transform", "--direction", "half-to-rho", "--rho", "1/3",
                "--family", f"omega,{text}", "--horizon", "2000", "--depth", "2"]
    else:
        path = tmp_path / "pair.json"
        path.write_text(json.dumps({"eps": "1/4", "H": [0], "guards": {
            "0": {"index": 0, "kind": "trace", "base": text}}}))
        argv = ["preserve", "--op", "witness-below", "--pair", str(path)]
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        got, out = invoke(argv)
    assert got == code
    if code:
        prefix = "malformed pair: " if surface == "pair" else ""
        assert (out, err.getvalue()) == (
            "", f"error: {prefix}descriptor nests deeper than 100 constructors\n")


@pytest.mark.parametrize("argv", [
    ["verify-cert", "--input"],
    ["relsys", "--file"],
    ["preserve", "--op", "witness-below", "--pair"],
])
def test_a_directory_for_an_input_file_is_a_usage_error(tmp_path, argv):
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code, out = invoke(argv + [str(tmp_path)])
    assert (code, out) == (2, "")
    assert err.getvalue().startswith("error: ") and str(tmp_path) in err.getvalue()


@pytest.mark.parametrize("payload", [5, None, True, {"certificates": 5}, "abc"])
def test_verify_cert_of_a_non_certificate_payload_is_a_usage_error(tmp_path, payload):
    code, rep, err = _verify_cert_file(tmp_path, payload)
    assert (code, rep) == (2, None)
    assert err.startswith("error: malformed certificate file: ")
