import json
import math

import numpy as np
import pytest

from qrenyi import cli, dpi, entanglement
from qrenyi.channels import amplitude_damping, partial_trace_channel, unitary_channel
from qrenyi.cli import (
    EXIT_OK,
    EXIT_PARSE_ERROR,
    EXIT_PRECONDITION,
    EXIT_SUITE_FAILURE,
    MatrixFileError,
    channel_to_doc,
    main,
    matrix_to_doc,
    parse_matrix_doc,
)
from qrenyi.linalg import max_abs
from qrenyi.states import maximally_mixed, random_density, random_unitary
from qrenyi.suites import SUITES, TOLERANCES


@pytest.fixture
def workdir(tmp_path):
    def write(name, payload):
        path = tmp_path / name
        path.write_text(json.dumps(payload))
        return str(path)

    return tmp_path, write


def _run(capsys, argv):
    code = main(argv)
    out = capsys.readouterr().out
    return code, json.loads(out) if out.strip() else None


class TestMatrixFile:
    def test_round_trip_exact(self):
        rho = random_density(3, 3, 77)
        doc = matrix_to_doc(rho, "state")
        text = json.dumps(doc)
        back, dims = parse_matrix_doc(json.loads(text))
        assert dims is None
        assert max_abs(back - rho) == 0.0  # decimal round trip is bit exact

    def test_bipartite_dims(self):
        rho = random_density(6, 6, 78)
        doc = matrix_to_doc(rho, "state", dims=(2, 3))
        back, state = parse_matrix_doc(doc)
        assert (state.dim_a, state.dim_b) == (2, 3)
        assert state.mat is back
        assert max_abs(back - rho) == 0.0

    def test_channel_round_trip(self):
        chan = amplitude_damping(0.37)
        doc = channel_to_doc(chan)
        back = parse_matrix_doc(json.loads(json.dumps(doc)))
        assert back.dim_in == 2 and back.dim_out == 2
        for k1, k2 in zip(chan.kraus, back.kraus):
            assert max_abs(k1 - k2) == 0.0

    def test_rejects_bad_lengths(self):
        doc = {"kind": "state", "dim": 2, "re": [1.0, 0.0], "im": [0.0, 0.0]}
        with pytest.raises(Exception):
            parse_matrix_doc(doc)

    def test_non_finite_channel_exits_parse_error(self, capsys, workdir):
        _, write = workdir
        doc = channel_to_doc(amplitude_damping(0.2))
        doc["kraus"][0]["re"][0] = float("nan")
        chan = write("nan_channel.json", doc)
        rho = write("rho.json", matrix_to_doc(maximally_mixed(2), "state"))
        code, out = _run(capsys, ["entanglement-fidelity", "--rho", rho, "--channel", chan])
        assert code == EXIT_PARSE_ERROR and out is None

    def test_rejects_dimensions_below_one(self):
        state = matrix_to_doc(maximally_mixed(4), "state", dims=(-2, -2))
        flat = {"kind": "state", "dim": 0, "re": [], "im": []}
        chan = channel_to_doc(amplitude_damping(0.37))
        chan["dim_in"] = chan["dim_out"] = -2
        for doc in (state, flat, chan):
            with pytest.raises(MatrixFileError, match="must be >= 1"):
                parse_matrix_doc(doc)

    @pytest.mark.parametrize(
        "field,value",
        [("dimA", 2.5), ("dimB", True), ("dim", 4.9), ("dim_in", 2.2), ("dim_out", 2.0)],
    )
    def test_dimensions_are_json_integers(self, capsys, workdir, field, value):
        # int() took each of these: 2.5 and 4.9 as 2 and 4, True as 1
        _, write = workdir
        rho = matrix_to_doc(random_density(4, 4, 5), "state", dims=(2, 2))
        chan = channel_to_doc(amplitude_damping(0.37))
        flat = matrix_to_doc(random_density(4, 4, 5), "state")
        if field in ("dimA", "dimB"):
            state = write("s.json", {**rho, field: value})
            argv = ["conditional-entropy", "--state", state]
        elif field == "dim":
            path = write("r.json", {**flat, field: value})
            argv = ["divergence", "--kind", "qre", "--rho", path, "--sigma", path]
        else:
            rho = write("r.json", matrix_to_doc(maximally_mixed(2), "state"))
            path = write("c.json", {**chan, field: value})
            argv = ["entanglement-fidelity", "--rho", rho, "--channel", path]
        code = main(argv)
        err = capsys.readouterr().err
        assert code == EXIT_PARSE_ERROR
        assert err.endswith(f"error: {field} must be a JSON integer, got {value!r}\n")

    def test_rejects_nonpositive_state(self):
        bad = np.diag([1.5, -0.5]).astype(complex)
        doc = matrix_to_doc(bad, "state")
        with pytest.raises(Exception):
            parse_matrix_doc(doc)


class TestCommands:
    def test_divergence_self_zero(self, capsys, workdir):
        _, write = workdir
        rho = write("rho.json", matrix_to_doc(random_density(2, 2, 5), "state"))
        code, out = _run(
            capsys,
            ["divergence", "--kind", "srd", "--rho", rho, "--sigma", rho, "--alpha", "2"],
        )
        assert code == EXIT_OK
        assert abs(out["value"]) < 1e-9

    def test_divergence_classical_fixture(self, capsys, workdir):
        _, write = workdir
        pure = write("pure.json", matrix_to_doc(np.diag([1.0, 0.0]).astype(complex), "state"))
        mixed = write("mixed.json", matrix_to_doc(maximally_mixed(2), "state"))
        code, out = _run(
            capsys,
            ["divergence", "--kind", "srd", "--rho", pure, "--sigma", mixed, "--alpha", "2"],
        )
        assert code == EXIT_OK
        assert abs(out["value"] - 1.0) < 1e-9

    def test_divergence_rre_at_large_order_is_finite(self, capsys, workdir):
        # mu_min^(1 - alpha) leaves the float range on this pair
        _, write = workdir
        rho = write("rho.json", matrix_to_doc(random_density(2, 2, 11), "state"))
        sig = write("sig.json", matrix_to_doc(random_density(2, 2, 12), "state"))
        code, out = _run(
            capsys,
            ["divergence", "--kind", "rre", "--rho", rho, "--sigma", sig, "--alpha", "300"],
        )
        assert code == EXIT_OK
        assert isinstance(out["value"], float) and math.isfinite(out["value"])

    def test_divergence_infinite(self, capsys, workdir):
        _, write = workdir
        pure = write("pure.json", matrix_to_doc(np.diag([1.0, 0.0]).astype(complex), "state"))
        mixed = write("mixed.json", matrix_to_doc(maximally_mixed(2), "state"))
        code, out = _run(
            capsys,
            ["divergence", "--kind", "srd", "--rho", mixed, "--sigma", pure, "--alpha", "2"],
        )
        assert code == EXIT_OK
        assert out["value"] == "inf"

    def test_equality_verdicts(self, capsys, workdir):
        _, write = workdir
        rho = write("rho.json", matrix_to_doc(random_density(2, 2, 8), "state"))
        sig = write("sig.json", matrix_to_doc(random_density(2, 2, 9), "state"))
        uni = write("uni.json", channel_to_doc(unitary_channel(random_unitary(2, 3))))
        damp = write("damp.json", channel_to_doc(amplitude_damping(0.3)))
        code, out = _run(
            capsys, ["equality", "--rho", rho, "--sigma", sig, "--channel", uni]
        )
        assert code == EXIT_OK and out["verdict"] == "equal"
        code, out = _run(
            capsys, ["equality", "--rho", rho, "--sigma", sig, "--channel", damp]
        )
        assert code == EXIT_OK and out["verdict"] == "not-equal"

    def test_recover_and_sufficiency(self, capsys, workdir):
        _, write = workdir
        rho = write("rho.json", matrix_to_doc(random_density(2, 2, 10), "state"))
        sig = write("sig.json", matrix_to_doc(random_density(2, 2, 11), "state"))
        damp = write("damp.json", channel_to_doc(amplitude_damping(0.3)))
        code, out = _run(capsys, ["recover", "--sigma", sig, "--channel", damp])
        assert code == EXIT_OK
        assert out["recover_sigma_error"] < 1e-9
        code, out = _run(
            capsys, ["sufficiency", "--rho", rho, "--sigma", sig, "--channel", damp]
        )
        assert code == EXIT_OK
        assert out["sufficient"] is False

    def test_each_quantity_computed_once(self, capsys, workdir, monkeypatch):
        _, write = workdir
        rho = write("rho.json", matrix_to_doc(random_density(2, 2, 10), "state"))
        damp = write("damp.json", channel_to_doc(amplitude_damping(0.3)))
        calls = []

        def counted(module, name):
            # the CLI's own binding too, should it call the function directly
            fn = getattr(module, name)
            wrapped = lambda *a: calls.append(name) or fn(*a)  # noqa: E731
            monkeypatch.setattr(module, name, wrapped)
            monkeypatch.setattr(cli, name, wrapped, raising=False)

        counted(dpi, "petz_recovery")
        # the traces every entanglement-fidelity route computes
        counted(entanglement, "_entanglement_fidelity")
        argv = ["--rho", rho, "--sigma", rho, "--channel", damp]
        assert _run(capsys, ["sufficiency"] + argv)[0] == EXIT_OK
        del argv[2:4]
        assert _run(capsys, ["entanglement-fidelity"] + argv)[0] == EXIT_OK
        assert calls == ["petz_recovery", "_entanglement_fidelity"]

    def test_conditional_entropy_bell(self, capsys, workdir):
        _, write = workdir
        phi = np.zeros(4, dtype=complex)
        phi[0] = phi[3] = 1.0 / np.sqrt(2.0)
        state = write(
            "bell.json", matrix_to_doc(np.outer(phi, phi.conj()), "state", dims=(2, 2))
        )
        code, out = _run(capsys, ["conditional-entropy", "--state", state, "--alpha", "2"])
        assert code == EXIT_OK
        assert abs(out["value"] + 1.0) < 1e-6

    def test_araki_lieb_and_eof(self, capsys, workdir):
        _, write = workdir
        phi = np.zeros(4, dtype=complex)
        phi[0] = phi[3] = 1.0 / np.sqrt(2.0)
        state = write(
            "bell.json", matrix_to_doc(np.outer(phi, phi.conj()), "state", dims=(2, 2))
        )
        code, out = _run(capsys, ["araki-lieb", "--state", state, "--alpha", "2"])
        assert code == EXIT_OK
        assert abs(out["lower"] + 1.0) < 1e-9 and abs(out["upper"] - 1.0) < 1e-9
        code, out = _run(capsys, ["eof", "--state", state, "--alpha", "2"])
        assert code == EXIT_OK
        assert abs(out["value"] - 1.0) < 1e-6

    def test_eof_at_infinite_order(self, capsys, workdir):
        # the dual-order bound holds for 1 < alpha < inf only, as at alpha < 1
        _, write = workdir
        doc = matrix_to_doc(random_density(4, 3, 5), "state", dims=(2, 2))
        code, out = _run(capsys, ["eof", "--state", write("s.json", doc), "--alpha", "inf"])
        assert code == EXIT_OK
        assert math.isfinite(out["value"]) and out["renyi_lower_bound"] is None

    def test_araki_lieb_and_eof_on_a_state_with_a_roundoff_marginal(self, capsys, workdir):
        # the state passes its floor; its A marginal has an eigenvalue of
        # -1.8e-10, below the floor a marginal check would put at -1e-10
        _, write = workdir
        rho = np.diag([0.5, 0.5 + 1.8e-10, -0.9e-10, -0.9e-10])
        state = write("s.json", matrix_to_doc(rho, "state", dims=(2, 2)))
        for command in ("araki-lieb", "eof"):
            code, _ = _run(capsys, [command, "--state", state, "--alpha", "2"])
            assert code == EXIT_OK, command

    def test_entanglement_fidelity(self, capsys, workdir):
        _, write = workdir
        mixed = write("mix.json", matrix_to_doc(maximally_mixed(2), "state"))
        damp = write("damp.json", channel_to_doc(amplitude_damping(0.2)))
        code, out = _run(
            capsys, ["entanglement-fidelity", "--rho", mixed, "--channel", damp]
        )
        assert code == EXIT_OK
        assert 0.0 <= out["value"] <= 1.0
        assert out["bound_gap"] > 0.0 and out["is_pure"] is False

    def test_violation_search_small(self, capsys):
        code, out = _run(
            capsys, ["violation-search", "--alpha", "0.3", "--trials", "400", "--seed", "7"]
        )
        assert code == EXIT_OK
        assert out["violation_found"] is True


class TestSuiteCommand:
    def test_suite_pass_and_report_fields(self, capsys, tmp_path):
        out_path = tmp_path / "report.json"
        code, out = _run(
            capsys,
            [
                "suite",
                "--name",
                "variational-form",
                "--seed",
                "4",
                "--trials",
                "4",
                "--output",
                str(out_path),
            ],
        )
        assert code == EXIT_OK
        assert out["failures"] == []
        assert out["suite"] == "variational-form"
        on_disk = json.loads(out_path.read_text())
        assert on_disk["seed"] == 4

    def test_reports_byte_identical_modulo_wall_time(self, capsys):
        def run_once():
            code, out = _run(
                capsys,
                ["suite", "--name", "classical-reduction", "--seed", "12", "--trials", "5"],
            )
            assert code == EXIT_OK
            out.pop("wall_time_s")
            return json.dumps(out, sort_keys=True)

        assert run_once() == run_once()

    def test_suite_failure_exit_code(self, capsys):
        # an impossible tolerance forces failures, which map to exit 1
        code, out = _run(
            capsys,
            [
                "suite",
                "--name",
                "classical-reduction",
                "--seed",
                "12",
                "--trials",
                "3",
                "--tolerance",
                "commuting=1e-30",
            ],
        )
        assert code == EXIT_SUITE_FAILURE
        assert out["failures"]

    def test_unknown_suite(self, capsys):
        code, _ = _run(capsys, ["suite", "--name", "does-not-exist"])
        assert code == EXIT_PARSE_ERROR

    @pytest.mark.parametrize(
        "name, extra",
        [
            ("duality", ["--dims", "9", "--trials", "1"]),
            ("duality", ["--alpha", "3"]),
            ("fidelity-measurement", ["--trials", "8"]),
        ],
        ids=["dims", "alpha", "trials"],
    )
    def test_option_the_suite_does_not_take(self, capsys, name, extra):
        code = main(["suite", "--name", name, *extra])
        assert code == EXIT_PARSE_ERROR
        assert "unexpected keyword argument" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "tolerance, expected, error",
        [
            ("gapp=1e-30", EXIT_PARSE_ERROR, "no tolerance gapp"),
            ("gap=1e-30", EXIT_SUITE_FAILURE, None),
            # every gate compares with > or <, so these would switch it off
            ("gap=nan", EXIT_PARSE_ERROR, "gap=nan must be finite and >= 0"),
            ("gap=inf", EXIT_PARSE_ERROR, "gap=inf must be finite and >= 0"),
            ("gap=-1e-3", EXIT_PARSE_ERROR, "gap=-0.001 must be finite and >= 0"),
        ],
        ids=["misspelled", "known", "nan", "inf", "negative"],
    )
    def test_tolerance_keys(self, capsys, tolerance, expected, error):
        argv = ["suite", "--name", "duality", "--trials", "1", "--tolerance", tolerance]
        assert main(argv) == expected
        if expected == EXIT_PARSE_ERROR:
            assert error in capsys.readouterr().err

    @pytest.mark.parametrize(
        "name, extra, error",
        [
            ("duality", ["--trials", "0"], "trials must be at least 1, got 0"),
            ("duality", ["--trials", "-3"], "trials must be at least 1, got -3"),
            ("dpi-holds", ["--trials", "1", "--dims", "1"], "dims must be at least 2"),
        ],
        ids=["no-trials", "negative-trials", "one-dimension"],
    )
    def test_rejects_empty_runs(self, capsys, name, extra, error):
        code = main(["suite", "--name", name, *extra])
        captured = capsys.readouterr()
        assert code == EXIT_PARSE_ERROR and captured.out == ""
        assert error in captured.err

    def test_report_echoes_its_tolerances(self, capsys):
        code, out = _run(
            capsys,
            ["suite", "--name", "araki-lieb", "--trials", "2", "--tolerance", "slack=0.25"],
        )
        assert code == EXIT_OK
        assert out["tolerances"] == {"slack": 0.25, "saturation": 1e-5}

    def test_registrations_fill_both_tables(self):
        assert list(SUITES) == list(TOLERANCES) and len(SUITES) == 12
        assert SUITES["duality"](trials=1).tolerances == TOLERANCES["duality"]
        with pytest.raises(ValueError, match="unexpected keyword argument 'dims'"):
            SUITES["duality"](trials=1, dims=3)

    def test_alpha_reaches_the_violation_suite(self, capsys):
        code, out = _run(
            capsys,
            ["suite", "--name", "dpi-violation-below-half", "--alpha", "0.35",
             "--trials", "200", "--seed", "11"],
        )
        assert code in (EXIT_OK, EXIT_SUITE_FAILURE)
        assert out["summary"]["violation_alpha"] == 0.35


class TestExitCodes:
    def test_parse_error(self, capsys, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{broken")
        good = tmp_path / "good.json"
        good.write_text(json.dumps(matrix_to_doc(maximally_mixed(2), "state")))
        code = main(
            ["divergence", "--kind", "qre", "--rho", str(bad), "--sigma", str(good)]
        )
        capsys.readouterr()
        assert code == EXIT_PARSE_ERROR

    def test_invalid_alpha_is_parse_error(self, capsys, tmp_path):
        rho = tmp_path / "rho.json"
        rho.write_text(json.dumps(matrix_to_doc(random_density(2, 2, 5), "state")))
        sig = tmp_path / "sig.json"
        sig.write_text(json.dumps(matrix_to_doc(random_density(2, 2, 6), "state")))
        code = main(
            [
                "divergence",
                "--kind",
                "srd",
                "--rho",
                str(rho),
                "--sigma",
                str(sig),
                "--alpha",
                "-1",
            ]
        )
        err = capsys.readouterr().err
        assert code == EXIT_PARSE_ERROR
        assert err.startswith("error:") and "Traceback" not in err

    def test_precondition_violation(self, capsys, tmp_path):
        rho = tmp_path / "rho.json"
        rho.write_text(json.dumps(matrix_to_doc(maximally_mixed(2), "state")))
        sig = tmp_path / "sig.json"
        sig.write_text(
            json.dumps(matrix_to_doc(np.diag([1.0, 0.0]).astype(complex), "state"))
        )
        chan = tmp_path / "chan.json"
        chan.write_text(json.dumps(channel_to_doc(amplitude_damping(0.3))))
        # equality with alpha > 1 on a rank-deficient sigma hard-fails
        code = main(
            [
                "equality",
                "--rho",
                str(rho),
                "--sigma",
                str(sig),
                "--channel",
                str(chan),
                "--alpha",
                "2",
            ]
        )
        capsys.readouterr()
        assert code == EXIT_PRECONDITION

    def test_shape_mismatch_is_a_precondition_violation(self, capsys, workdir):
        _, write = workdir
        rho = write("rho.json", matrix_to_doc(random_density(2, 2, 5), "state"))
        sig = write("sig.json", matrix_to_doc(random_density(3, 3, 6), "state"))
        code = main(
            ["divergence", "--kind", "srd", "--rho", rho, "--sigma", sig, "--alpha", "2"]
        )
        err = capsys.readouterr().err
        assert code == EXIT_PRECONDITION
        assert "(2, 2)" in err and "(3, 3)" in err

    def test_equality_accepts_a_pair_whose_image_dips_below_the_floor(
        self, capsys, workdir
    ):
        # the image's eigenvalue -1.44e-9 is roundoff of an accepted rho
        _, write = workdir
        rho = np.diag([1 / 16] * 16 + [-0.9e-10] * 16).astype(complex)
        args = {
            "--rho": write("rho.json", matrix_to_doc(rho, "positive")),
            "--sigma": write("sig.json", matrix_to_doc(maximally_mixed(32), "state")),
            "--channel": write("ch.json", channel_to_doc(partial_trace_channel(2, 16))),
        }
        argv = ["equality", "--alpha", "2"] + [x for kv in args.items() for x in kv]
        code, out = _run(capsys, argv)
        assert code == EXIT_OK
        assert out["gap"] == 0.0 and out["verdict"] == "equal"

    @pytest.mark.parametrize("trials", ["0", "-2"])
    def test_violation_search_without_trials(self, capsys, trials):
        code = main(["violation-search", "--trials", trials])
        err = capsys.readouterr().err
        assert code == EXIT_PARSE_ERROR
        assert err == f"error: search needs at least one trial, got {trials}\n"

    def test_negative_restarts(self, capsys, tmp_path):
        state = tmp_path / "state.json"
        doc = matrix_to_doc(random_density(4, 4, 5), "state", dims=(2, 2))
        state.write_text(json.dumps(doc))
        code = main(["eof", "--state", str(state), "--restarts", "-3"])
        err = capsys.readouterr().err
        assert code == EXIT_PARSE_ERROR
        assert err == "error: restarts must be >= 0, got -3\n"

    @pytest.mark.parametrize("alpha", ["1", "2"])
    @pytest.mark.parametrize(
        "option,message",
        [
            (["--restarts", "-3"], "restarts must be >= 0, got -3"),
            (["--ensemble-size", "-5"], "ensemble_size must be >= 1, got -5"),
            (["--ensemble-size", "0"], "ensemble_size must be >= 1, got 0"),
        ],
        ids=["restarts", "ensemble-size", "empty-ensemble"],
    )
    def test_eof_options_at_every_order(self, capsys, tmp_path, alpha, option, message):
        # order 1 returns the von Neumann bound without minimizing
        state = tmp_path / "state.json"
        doc = matrix_to_doc(random_density(4, 4, 5), "state", dims=(2, 2))
        state.write_text(json.dumps(doc))
        code = main(["eof", "--state", str(state), "--alpha", alpha, *option])
        err = capsys.readouterr().err
        assert code == EXIT_PARSE_ERROR
        assert err == f"error: {message}\n"

    @pytest.mark.parametrize("alpha", ["-1", "nan"])
    def test_eof_meaningless_order(self, capsys, tmp_path, alpha):
        state = tmp_path / "state.json"
        doc = matrix_to_doc(random_density(4, 2, 616), "state", dims=(2, 2))
        state.write_text(json.dumps(doc))
        code = main(["eof", "--state", str(state), "--alpha", alpha])
        err = capsys.readouterr().err
        assert code == EXIT_PARSE_ERROR
        assert err == f"error: alpha must be non-negative, got {float(alpha)}\n"

    @pytest.mark.parametrize(
        "argv",
        [
            ["suite", "--name", "duality", "--trials", "1", "--seed", "-1"],
            ["violation-search", "--trials", "1", "--seed", "-1"],
        ],
        ids=["suite", "violation-search"],
    )
    def test_negative_seed(self, capsys, argv):
        code = main(argv)
        err = capsys.readouterr().err
        assert code == EXIT_PARSE_ERROR
        assert err == "error: seed must be a non-negative integer, got -1\n"

    def test_state_dimensions_below_one(self, capsys, tmp_path):
        state = tmp_path / "state.json"
        doc = matrix_to_doc(maximally_mixed(4), "state", dims=(-2, -2))
        state.write_text(json.dumps(doc))
        code = main(["conditional-entropy", "--state", str(state)])
        err = capsys.readouterr().err
        assert code == EXIT_PARSE_ERROR
        assert err == "error: dimA and dimB must be >= 1, got -2 and -2\n"

    def test_unwritable_output(self, capsys, tmp_path):
        rho = tmp_path / "rho.json"
        rho.write_text(json.dumps(matrix_to_doc(random_density(2, 2, 5), "state")))
        target = tmp_path / "no" / "such" / "x.json"
        code = main(
            ["divergence", "--kind", "srd", "--rho", str(rho), "--sigma", str(rho),
             "--output", str(target)]
        )
        err = capsys.readouterr().err
        assert code == EXIT_PARSE_ERROR
        assert err.startswith(f"error: cannot write {target}") and "Traceback" not in err

    def test_precision_loss(self, capsys):
        # valid arguments whose refined pair's trace functional underflows
        code = main(
            ["violation-search", "--alpha", "0.1", "--trials", "1000", "--seed", "6"]
        )
        err = capsys.readouterr().err
        assert code == EXIT_PRECONDITION
        assert err == "error: trace functional underflows to 0 at alpha = 0.1\n"
