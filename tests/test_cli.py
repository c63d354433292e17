import json

import numpy as np
import pytest

from qrenyi.channels import amplitude_damping, unitary_channel
from qrenyi.cli import (
    EXIT_OK,
    EXIT_PARSE_ERROR,
    EXIT_PRECONDITION,
    EXIT_SUITE_FAILURE,
    channel_to_doc,
    main,
    matrix_to_doc,
    parse_matrix_doc,
)
from qrenyi.linalg import max_abs
from qrenyi.states import maximally_mixed, random_density, random_unitary


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
        back, dims = parse_matrix_doc(doc)
        assert dims == (2, 3)
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
        "tolerance, expected",
        [("gapp=1e-30", EXIT_PARSE_ERROR), ("gap=1e-30", EXIT_SUITE_FAILURE)],
        ids=["misspelled", "known"],
    )
    def test_tolerance_keys(self, capsys, tolerance, expected):
        argv = ["suite", "--name", "duality", "--trials", "1", "--tolerance", tolerance]
        assert main(argv) == expected
        if expected == EXIT_PARSE_ERROR:
            assert "no tolerance gapp" in capsys.readouterr().err

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
