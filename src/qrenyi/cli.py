"""Command-line front end: matrix/channel JSON I/O, divergence and
certificate evaluation, and the seeded property-suite runners.

Exit codes: 0 success, 1 suite failure, 2 parse error or invalid argument
value, 3 precondition (support/dimension) violation.
"""

from __future__ import annotations

import argparse
import json
import math
import sys

import numpy as np

from . import __version__
from .channels import QuantumChannel, apply
from .divergences import conditional_renyi, d_max, qre, rre, srd
from .dpi import (
    dpi_check,
    dpi_violation_search,
    equality_residual,
    petz_recovery,
    sufficiency_test,
)
from .entanglement import (
    araki_lieb_renyi,
    entanglement_fidelity,
    eof_lower_bound,
    fe_equality_check,
    reof_lower_bound,
    reof_minimize,
)
from .errors import (
    DimensionMismatch,
    DisjointSupports,
    QRenyiError,
    SupportViolation,
    UnknownSuite,
)
from .linalg import max_abs
from .states import BipartiteState, check_density, check_positive
from .suites import run_suite

EXIT_OK = 0
EXIT_SUITE_FAILURE = 1
EXIT_PARSE_ERROR = 2
EXIT_PRECONDITION = 3


class MatrixFileError(Exception):
    """Raised when a matrix/channel JSON document cannot be interpreted."""


# ---------------------------------------------------------------------------
# MatrixFile JSON format
# ---------------------------------------------------------------------------


def _matrix_from_parts(re, im, dim_rows, dim_cols):
    re_arr = np.asarray(re, dtype=float).reshape(-1)
    im_arr = np.asarray(im, dtype=float).reshape(-1)
    if re_arr.size != dim_rows * dim_cols or im_arr.size != dim_rows * dim_cols:
        raise MatrixFileError(
            f"array length {re_arr.size} does not match shape "
            f"{dim_rows}x{dim_cols}"
        )
    return (re_arr + 1j * im_arr).reshape(dim_rows, dim_cols)


def matrix_to_doc(mat: np.ndarray, kind: str = "state", dims=None) -> dict:
    """Serialize a matrix as a MatrixFile document (row-major re/im)."""
    m = np.asarray(mat, dtype=np.complex128)
    doc: dict = {"kind": kind}
    if dims is not None:
        doc["dimA"], doc["dimB"] = int(dims[0]), int(dims[1])
    else:
        doc["dim"] = int(m.shape[0])
    doc["re"] = [float(x) for x in m.real.ravel()]
    doc["im"] = [float(x) for x in m.imag.ravel()]
    return doc


def channel_to_doc(channel: QuantumChannel) -> dict:
    return {
        "kind": "channel-kraus",
        "dim_in": channel.dim_in,
        "dim_out": channel.dim_out,
        "kraus": [
            {
                "re": [float(x) for x in k.real.ravel()],
                "im": [float(x) for x in k.imag.ravel()],
            }
            for k in channel.kraus
        ],
    }


def parse_matrix_doc(doc: dict):
    """Parse a MatrixFile document into a matrix (plus dims) or a channel."""
    if not isinstance(doc, dict) or "kind" not in doc:
        raise MatrixFileError("document must be an object with a 'kind' field")
    kind = doc["kind"]
    if kind == "channel-kraus":
        try:
            d_in, d_out = int(doc["dim_in"]), int(doc["dim_out"])
            kraus = [
                _matrix_from_parts(k["re"], k["im"], d_out, d_in)
                for k in doc["kraus"]
            ]
        except (KeyError, TypeError, ValueError) as exc:
            raise MatrixFileError(f"malformed channel document: {exc}") from exc
        try:
            return QuantumChannel(kraus)
        except (ValueError, DimensionMismatch) as exc:
            raise MatrixFileError(f"invalid channel: {exc}") from exc
    if kind not in ("state", "positive"):
        raise MatrixFileError(f"unknown kind {kind!r}")
    if "dimA" in doc or "dimB" in doc:
        try:
            da, db = int(doc["dimA"]), int(doc["dimB"])
        except (KeyError, TypeError, ValueError) as exc:
            raise MatrixFileError("dimA/dimB must both be present") from exc
        d = da * db
        dims = (da, db)
    else:
        try:
            d = int(doc["dim"])
        except (KeyError, TypeError, ValueError) as exc:
            raise MatrixFileError("missing 'dim' field") from exc
        dims = None
    try:
        mat = _matrix_from_parts(doc.get("re"), doc.get("im"), d, d)
    except (TypeError, ValueError) as exc:
        raise MatrixFileError(f"malformed matrix arrays: {exc}") from exc
    try:
        mat = check_density(mat) if kind == "state" else check_positive(mat)
    except (QRenyiError, ValueError) as exc:
        raise MatrixFileError(f"invalid {kind} matrix: {exc}") from exc
    return mat, dims


def load_doc(path: str):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise MatrixFileError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise MatrixFileError(f"{path} is not valid JSON: {exc}") from exc
    return parse_matrix_doc(doc)


def _load_square(path: str):
    obj = load_doc(path)
    if isinstance(obj, QuantumChannel):
        raise MatrixFileError(f"{path} holds a channel, expected a matrix")
    return obj


def _load_channel(path: str) -> QuantumChannel:
    obj = load_doc(path)
    if not isinstance(obj, QuantumChannel):
        raise MatrixFileError(f"{path} holds a matrix, expected a channel")
    return obj


def _load_bipartite(path: str) -> BipartiteState:
    mat, dims = _load_square(path)
    if dims is None:
        raise MatrixFileError(f"{path} must carry dimA/dimB for this command")
    return BipartiteState(mat, dims[0], dims[1])


# ---------------------------------------------------------------------------
# Output helpers
# ---------------------------------------------------------------------------


def _jsonable(x):
    if isinstance(x, float):
        if math.isinf(x):
            return "inf" if x > 0 else "-inf"
        if math.isnan(x):
            return "nan"
        return x
    if isinstance(x, dict):
        return {k: _jsonable(v) for k, v in x.items()}
    if isinstance(x, (list, tuple)):
        return [_jsonable(v) for v in x]
    if isinstance(x, (np.floating, np.integer)):
        return _jsonable(float(x))
    if isinstance(x, bool) or isinstance(x, (int, str)) or x is None:
        return x
    return str(x)


def emit(payload: dict, output: str | None) -> None:
    text = json.dumps(_jsonable(payload), indent=2, sort_keys=True)
    print(text)
    if output:
        with open(output, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")


def _tolerance_dict(pairs):
    out = {}
    for item in pairs or []:
        if "=" not in item:
            raise MatrixFileError(f"--tolerance expects KEY=VAL, got {item!r}")
        key, val = item.split("=", 1)
        try:
            out[key] = float(val)
        except ValueError as exc:
            raise MatrixFileError(f"tolerance {item!r} is not numeric") from exc
    return out


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------


def cmd_divergence(args) -> int:
    rho, _ = _load_square(args.rho)
    sigma, _ = _load_square(args.sigma)
    fn = {"srd": srd, "rre": rre, "qre": qre, "dmax": d_max}[args.kind]
    dv = fn(rho, sigma, args.alpha) if args.kind in ("srd", "rre") else fn(rho, sigma)
    emit(
        {"kind": args.kind, "alpha": args.alpha, "value": dv.value,
         "support_case": dv.support_case},
        args.output,
    )
    return EXIT_OK


def cmd_equality(args) -> int:
    rho, _ = _load_square(args.rho)
    sigma, _ = _load_square(args.sigma)
    chan = _load_channel(args.channel)
    cert = equality_residual(rho, sigma, chan, args.alpha)
    rep = dpi_check(rho, sigma, chan, args.alpha)
    emit(
        {
            "alpha": args.alpha,
            "gap": rep.gap,
            "residual": cert.residual,
            "verdict": cert.verdict,
        },
        args.output,
    )
    return EXIT_OK


def cmd_recover(args) -> int:
    sigma, _ = _load_square(args.sigma)
    chan = _load_channel(args.channel)
    rec = petz_recovery(sigma, chan)
    back = apply(rec.channel, apply(chan, sigma))
    payload = {
        "recover_sigma_error": max_abs(back - sigma),
        "recovery_channel": channel_to_doc(rec.channel),
    }
    if args.state:
        omega, _ = _load_square(args.state)
        payload["recovered_state"] = matrix_to_doc(
            apply(rec.channel, omega), kind="positive"
        )
    emit(payload, args.output)
    return EXIT_OK


def cmd_sufficiency(args) -> int:
    rho, _ = _load_square(args.rho)
    sigma, _ = _load_square(args.sigma)
    chan = _load_channel(args.channel)
    rec = petz_recovery(sigma, chan)
    back = apply(rec.channel, apply(chan, rho))
    emit(
        {
            "sufficient": sufficiency_test(rho, sigma, chan),
            "recovery_error": max_abs(back - rho),
        },
        args.output,
    )
    return EXIT_OK


def cmd_conditional_entropy(args) -> int:
    state = _load_bipartite(args.state)
    value, optimizer = conditional_renyi(state, args.alpha)
    emit(
        {
            "alpha": args.alpha,
            "value": value,
            "optimizer": matrix_to_doc(optimizer, kind="state"),
        },
        args.output,
    )
    return EXIT_OK


def cmd_araki_lieb(args) -> int:
    state = _load_bipartite(args.state)
    rep = araki_lieb_renyi(state, args.alpha)
    emit(
        {
            "alpha": rep.alpha,
            "beta": rep.beta,
            "lower": rep.lower,
            "value": rep.value,
            "upper": rep.upper,
            "saturation_residual": rep.saturation_residual,
        },
        args.output,
    )
    return EXIT_OK


def cmd_eof(args) -> int:
    state = _load_bipartite(args.state)
    payload = {"alpha": args.alpha, "eof_lower_bound": eof_lower_bound(state)}
    if args.alpha == 1.0:
        emit(payload, args.output)
        return EXIT_OK
    value, ensemble = reof_minimize(
        state,
        args.alpha,
        ensemble_size=args.ensemble_size,
        restarts=args.restarts,
        seed=args.seed,
    )
    payload["value"] = value
    payload["renyi_lower_bound"] = (
        reof_lower_bound(state, args.alpha) if args.alpha > 1.0 else None
    )
    payload["ensemble_weights"] = [float(w) for w in ensemble.weights]
    emit(payload, args.output)
    return EXIT_OK


def cmd_entanglement_fidelity(args) -> int:
    rho, _ = _load_square(args.rho)
    chan = _load_channel(args.channel)
    rep = fe_equality_check(rho, chan)
    emit(
        {
            "value": entanglement_fidelity(rho, chan),
            "fidelity_squared": rep.fidelity_squared,
            "bound_gap": rep.bound_gap,
            "is_pure": rep.is_pure,
        },
        args.output,
    )
    return EXIT_OK


def cmd_suite(args) -> int:
    kwargs = {"seed": args.seed, "tolerances": _tolerance_dict(args.tolerance)}
    if args.trials is not None:
        kwargs["trials"] = args.trials
    if args.dims is not None:
        kwargs["dims"] = args.dims
    if args.name == "dpi-violation-below-half" and args.alpha is not None:
        kwargs["alpha"] = args.alpha
    report = run_suite(args.name, **kwargs)
    emit(report.to_dict(), args.output)
    return EXIT_OK if report.passed else EXIT_SUITE_FAILURE


def cmd_violation_search(args) -> int:
    res = dpi_violation_search(args.alpha, args.trials, args.seed)
    emit(
        {
            "alpha": res.alpha,
            "trials": res.trials,
            "gap": res.gap,
            "violation_found": res.gap < 0.0,
            "rho": matrix_to_doc(res.rho_ab, kind="state", dims=(2, 2)),
            "sigma": matrix_to_doc(res.sigma_ab, kind="state", dims=(2, 2)),
        },
        args.output,
    )
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qrenyi",
        description="Sandwiched Renyi divergences and processing-inequality "
        "equality diagnostics for small quantum systems.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, alpha=True, output=True):
        if alpha:
            p.add_argument("--alpha", type=float, default=2.0)
        if output:
            p.add_argument("--output", type=str, default=None)

    p = sub.add_parser("divergence", help="evaluate a divergence on two operators")
    p.add_argument("--kind", choices=["srd", "rre", "qre", "dmax"], required=True)
    p.add_argument("--rho", required=True)
    p.add_argument("--sigma", required=True)
    common(p)
    p.set_defaults(func=cmd_divergence)

    p = sub.add_parser("equality", help="equality certificate across a channel")
    p.add_argument("--rho", required=True)
    p.add_argument("--sigma", required=True)
    p.add_argument("--channel", required=True)
    common(p)
    p.set_defaults(func=cmd_equality)

    p = sub.add_parser("recover", help="build the recovery map anchored at sigma")
    p.add_argument("--sigma", required=True)
    p.add_argument("--channel", required=True)
    p.add_argument("--state", default=None, help="optional state to push through")
    common(p, alpha=False)
    p.set_defaults(func=cmd_recover)

    p = sub.add_parser("sufficiency", help="does the recovery map restore rho?")
    p.add_argument("--rho", required=True)
    p.add_argument("--sigma", required=True)
    p.add_argument("--channel", required=True)
    common(p, alpha=False)
    p.set_defaults(func=cmd_sufficiency)

    p = sub.add_parser(
        "conditional-entropy", help="Renyi conditional entropy of a bipartite state"
    )
    p.add_argument("--state", required=True)
    common(p)
    p.set_defaults(func=cmd_conditional_entropy)

    p = sub.add_parser("araki-lieb", help="conditional-entropy sandwich report")
    p.add_argument("--state", required=True)
    common(p)
    p.set_defaults(func=cmd_araki_lieb)

    p = sub.add_parser("eof", help="(Renyi) entanglement of formation")
    p.add_argument("--state", required=True)
    p.add_argument("--ensemble-size", type=int, default=None)
    p.add_argument("--restarts", type=int, default=4)
    p.add_argument("--seed", type=int, default=0)
    common(p)
    p.set_defaults(func=cmd_eof)

    p = sub.add_parser(
        "entanglement-fidelity", help="entanglement fidelity and its bound gap"
    )
    p.add_argument("--rho", required=True)
    p.add_argument("--channel", required=True)
    common(p, alpha=False)
    p.set_defaults(func=cmd_entanglement_fidelity)

    p = sub.add_parser("suite", help="run a named property suite")
    p.add_argument("--name", required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--trials", type=int, default=None)
    p.add_argument("--dims", type=int, default=None)
    p.add_argument("--alpha", type=float, default=None)
    p.add_argument(
        "--tolerance", action="append", metavar="KEY=VAL", default=None
    )
    p.add_argument("--output", type=str, default=None)
    p.set_defaults(func=cmd_suite)

    p = sub.add_parser(
        "violation-search", help="search for processing-inequality violations"
    )
    p.add_argument("--alpha", type=float, default=0.3)
    p.add_argument("--trials", type=int, default=20000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--output", type=str, default=None)
    p.set_defaults(func=cmd_violation_search)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except MatrixFileError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE_ERROR
    except UnknownSuite as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE_ERROR
    except (SupportViolation, DisjointSupports, DimensionMismatch) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PRECONDITION
    except QRenyiError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PRECONDITION
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE_ERROR


if __name__ == "__main__":
    sys.exit(main())
