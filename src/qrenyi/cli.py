"""Command-line front end: matrix/channel JSON I/O, divergence and
certificate evaluation, and the seeded property-suite runners.

Exit codes: 0 success, 1 suite failure, 2 parse error, invalid argument
value or unwritable output, 3 precondition (support/dimension) violation.
"""

from __future__ import annotations

import argparse
import inspect
import json
import math
import operator
import sys

import numpy as np

from . import __version__
from .channels import QuantumChannel, apply
from .divergences import conditional_renyi, d_max, qre, rre, srd
from .dpi import (
    EQ_TOL,
    _recovery_error,
    dpi_check,
    dpi_violation_search,
    equality_residual,
    petz_recovery,
)
from .entanglement import (
    araki_lieb_renyi,
    check_reof_options,
    eof_lower_bound,
    fe_equality_check,
    reof_lower_bound,
    reof_minimize,
)
from .errors import QRenyiError, UnknownSuite
from .linalg import max_abs
from .states import BipartiteState, _require_unit_trace, check_positive
from .suites import run_suite

EXIT_OK = 0
EXIT_SUITE_FAILURE = 1
EXIT_PARSE_ERROR = 2
EXIT_PRECONDITION = 3


class MatrixFileError(Exception):
    """Raised when a matrix/channel JSON document cannot be read or
    interpreted, or the output cannot be written.  Deliberately not a
    ValueError: argparse would turn one raised while loading a file into
    its own exit with its own message."""


# ---------------------------------------------------------------------------
# MatrixFile JSON format
# ---------------------------------------------------------------------------


def _dimension(doc: dict, key: str) -> int:
    """``doc[key]``, which must be a JSON integer: MatrixFileError naming
    the field for a float, a bool, a string or no value."""
    value = doc.get(key)
    if isinstance(value, bool) or not hasattr(value, "__index__"):
        raise MatrixFileError(f"{key} must be a JSON integer, got {value!r}")
    return operator.index(value)


def _matrix_from_parts(re, im, dim_rows, dim_cols):
    if min(dim_rows, dim_cols) < 1:
        raise MatrixFileError(f"dimensions must be >= 1, got {dim_rows}x{dim_cols}")
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
    doc["re"] = m.real.ravel().tolist()
    doc["im"] = m.imag.ravel().tolist()
    return doc


def channel_to_doc(channel: QuantumChannel) -> dict:
    return {
        "kind": "channel-kraus",
        "dim_in": channel.dim_in,
        "dim_out": channel.dim_out,
        "kraus": [
            {"re": k.real.ravel().tolist(), "im": k.imag.ravel().tolist()}
            for k in channel.kraus
        ],
    }


def parse_matrix_doc(doc: dict):
    """Parse a MatrixFile document into a channel or ``(matrix, state)``:
    the checked matrix, and the ``BipartiteState`` made of it where the
    document carries dims (None otherwise), checked once, when made."""
    if not isinstance(doc, dict) or "kind" not in doc:
        raise MatrixFileError("document must be an object with a 'kind' field")
    kind = doc["kind"]
    if kind == "channel-kraus":
        try:
            d_in, d_out = _dimension(doc, "dim_in"), _dimension(doc, "dim_out")
            kraus = [
                _matrix_from_parts(k["re"], k["im"], d_out, d_in)
                for k in doc["kraus"]
            ]
        except (KeyError, TypeError, ValueError) as exc:
            raise MatrixFileError(f"malformed channel document: {exc}") from exc
        try:
            return QuantumChannel(kraus)
        except (QRenyiError, ValueError) as exc:
            raise MatrixFileError(f"invalid channel: {exc}") from exc
    if kind not in ("state", "positive"):
        raise MatrixFileError(f"unknown kind {kind!r}")
    if "dimA" in doc or "dimB" in doc:
        da, db = _dimension(doc, "dimA"), _dimension(doc, "dimB")
        if min(da, db) < 1:
            raise MatrixFileError(f"dimA and dimB must be >= 1, got {da} and {db}")
        d, dims = da * db, (da, db)
    else:
        d, dims = _dimension(doc, "dim"), None
    try:
        mat = _matrix_from_parts(doc.get("re"), doc.get("im"), d, d)
    except (TypeError, ValueError) as exc:
        raise MatrixFileError(f"malformed matrix arrays: {exc}") from exc
    try:
        state = BipartiteState(mat, *dims) if dims else None
        mat = check_positive(mat) if state is None else state.mat
        mat = _require_unit_trace(mat) if kind == "state" else mat
    except (QRenyiError, ValueError) as exc:
        raise MatrixFileError(f"invalid {kind} matrix: {exc}") from exc
    return mat, state


def load_doc(path: str):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise MatrixFileError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise MatrixFileError(f"{path} is not valid JSON: {exc}") from exc
    return parse_matrix_doc(doc)


def _load_square(path: str) -> np.ndarray:
    obj = load_doc(path)
    if isinstance(obj, QuantumChannel):
        raise MatrixFileError(f"{path} holds a channel, expected a matrix")
    return obj[0]


def _load_channel(path: str) -> QuantumChannel:
    obj = load_doc(path)
    if not isinstance(obj, QuantumChannel):
        raise MatrixFileError(f"{path} holds a matrix, expected a channel")
    return obj


def _load_bipartite(path: str) -> BipartiteState:
    obj = load_doc(path)
    if isinstance(obj, QuantumChannel) or obj[1] is None:
        raise MatrixFileError(f"{path} must carry dimA/dimB for this command")
    return obj[1]


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
    if output:
        try:
            with open(output, "w", encoding="utf-8") as fh:
                fh.write(text + "\n")
        except OSError as exc:
            raise MatrixFileError(f"cannot write {output}: {exc}") from exc
    print(text)


def _tolerance_pair(item: str):
    key, _, val = item.partition("=")
    try:
        return key, float(val)
    except ValueError as exc:
        raise MatrixFileError(f"--tolerance {item!r} is not KEY=NUMBER") from exc


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------

#: Options several subcommands share, as ``add_argument`` keywords.  The
#: file options load their file while the command line is parsed, so a
#: command receives matrices, channels and states.
_SHARED = {
    "rho": {"type": _load_square, "required": True},
    "sigma": {"type": _load_square, "required": True},
    "channel": {"type": _load_channel, "required": True},
    "state": {"type": _load_bipartite, "required": True},
    "alpha": {"type": float, "default": 2.0},
    "seed": {"type": int, "default": 0},
}
#: (function, own options) of each subcommand, in registration order.
_COMMANDS = []


def _command(**own):
    """Register the decorated ``cmd_<name>`` as subcommand ``<name>``.

    Its parameters are its options, declared by ``own`` (option ->
    ``add_argument`` keywords) or else by ``_SHARED``; its docstring is the
    help text.  It returns the payload to emit.
    """

    def register(func):
        _COMMANDS.append((func, own))
        return func

    return register


@_command(kind={"choices": ["srd", "rre", "qre", "dmax"], "required": True})
def cmd_divergence(kind, rho, sigma, alpha) -> dict:
    """Evaluate a divergence on two operators."""
    fn = {"srd": srd, "rre": rre, "qre": qre, "dmax": d_max}[kind]
    dv = fn(rho, sigma, alpha) if kind in ("srd", "rre") else fn(rho, sigma)
    return {"kind": kind, "alpha": alpha, "value": dv.value,
            "support_case": dv.support_case}


@_command()
def cmd_equality(rho, sigma, channel, alpha) -> dict:
    """Equality certificate across a channel."""
    cert = equality_residual(rho, sigma, channel, alpha)
    rep = dpi_check(rho, sigma, channel, alpha)
    return {
        "alpha": alpha,
        "gap": rep.gap,
        "residual": cert.residual,
        "verdict": cert.verdict,
    }


@_command(state={"type": _load_square, "help": "optional state to push through"})
def cmd_recover(sigma, channel, state) -> dict:
    """Build the recovery map anchored at sigma."""
    rec = petz_recovery(sigma, channel)
    back = apply(rec.channel, apply(channel, sigma))
    payload = {
        "recover_sigma_error": max_abs(back - sigma),
        "recovery_channel": channel_to_doc(rec.channel),
    }
    if state is not None:
        payload["recovered_state"] = matrix_to_doc(
            apply(rec.channel, state), kind="positive"
        )
    return payload


@_command()
def cmd_sufficiency(rho, sigma, channel) -> dict:
    """Does the recovery map restore rho?"""
    err = _recovery_error(rho, sigma, channel)
    return {"sufficient": err <= EQ_TOL, "recovery_error": err}


@_command()
def cmd_conditional_entropy(state, alpha) -> dict:
    """Renyi conditional entropy of a bipartite state."""
    value, optimizer = conditional_renyi(state, alpha)
    return {
        "alpha": alpha,
        "value": value,
        "optimizer": matrix_to_doc(optimizer, kind="state"),
    }


@_command()
def cmd_araki_lieb(state, alpha) -> dict:
    """Conditional-entropy sandwich report."""
    rep = araki_lieb_renyi(state, alpha)
    return {
        "alpha": rep.alpha,
        "beta": rep.beta,
        "lower": rep.lower,
        "value": rep.value,
        "upper": rep.upper,
        "saturation_residual": rep.saturation_residual,
    }


@_command(ensemble_size={"type": int}, restarts={"type": int, "default": 4})
def cmd_eof(state, ensemble_size, restarts, seed, alpha) -> dict:
    """(Renyi) entanglement of formation."""
    # order 1 returns before the minimizer runs, so its options are checked here
    check_reof_options(alpha, ensemble_size, restarts)
    payload = {"alpha": alpha, "eof_lower_bound": eof_lower_bound(state)}
    if alpha == 1.0:
        return payload
    value, ensemble = reof_minimize(
        state,
        alpha,
        ensemble_size=ensemble_size,
        restarts=restarts,
        seed=seed,
    )
    payload["value"] = value
    payload["renyi_lower_bound"] = (
        reof_lower_bound(state, alpha) if 1.0 < alpha < math.inf else None
    )
    payload["ensemble_weights"] = [float(w) for w in ensemble.weights]
    return payload


@_command()
def cmd_entanglement_fidelity(rho, channel) -> dict:
    """Entanglement fidelity and its bound gap."""
    rep = fe_equality_check(rho, channel)
    return {
        "value": rep.entanglement_fidelity,
        "fidelity_squared": rep.fidelity_squared,
        "bound_gap": rep.bound_gap,
        "is_pure": rep.is_pure,
    }


@_command(
    name={"required": True},
    trials={"type": int},
    dims={"type": int},
    alpha={"type": float},
    tolerance={"action": "append", "metavar": "KEY=VAL", "type": _tolerance_pair},
)
def cmd_suite(name, seed, trials, dims, alpha, tolerance) -> dict:
    """Run a named property suite."""
    given = {"seed": seed, "trials": trials, "dims": dims, "alpha": alpha}
    options = {k: v for k, v in given.items() if v is not None}
    return run_suite(name, tolerances=dict(tolerance or ()), **options).to_dict()


@_command(alpha={"type": float, "default": 0.3}, trials={"type": int, "default": 20000})
def cmd_violation_search(alpha, trials, seed) -> dict:
    """Search for processing-inequality violations."""
    res = dpi_violation_search(alpha, trials, seed)
    return {
        "alpha": res.alpha,
        "trials": res.trials,
        "gap": res.gap,
        "violation_found": res.gap < 0.0,
        "rho": matrix_to_doc(res.rho_ab, kind="state", dims=(2, 2)),
        "sigma": matrix_to_doc(res.sigma_ab, kind="state", dims=(2, 2)),
    }


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qrenyi",
        description="Sandwiched Renyi divergences and processing-inequality "
        "equality diagnostics for small quantum systems.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(required=True)
    for func, own in _COMMANDS:
        p = sub.add_parser(func.__name__[4:].replace("_", "-"), help=func.__doc__)
        for key in inspect.signature(func).parameters:
            spec = own[key] if key in own else _SHARED[key]
            p.add_argument("--" + key.replace("_", "-"), **spec)
        p.add_argument("--output", type=str, default=None)
        p.set_defaults(func=func)
    return parser


def main(argv=None) -> int:
    try:
        # parsing loads the input files, so it raises MatrixFileError
        args = vars(build_parser().parse_args(argv))
        func, output = args.pop("func"), args.pop("output")
        payload = func(**args)
        emit(payload, output)
    except (MatrixFileError, QRenyiError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        # an unknown suite is a bad argument, not a failed precondition
        precond = isinstance(exc, QRenyiError) and not isinstance(exc, UnknownSuite)
        return EXIT_PRECONDITION if precond else EXIT_PARSE_ERROR
    # only a suite report carries a failure list
    return EXIT_SUITE_FAILURE if payload.get("failures") else EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
