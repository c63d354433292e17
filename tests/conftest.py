import os
import sys

# Pinned before numpy loads: the library decomposes tiny matrices, on which a
# multi-threaded BLAS pool costs more time than it saves.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import numpy as np
import pytest

from qrenyi.states import substream


def classical_renyi(p, q, alpha):
    """Scalar oracle sum p^a q^(1-a), log base 2."""
    p = np.asarray(p, dtype=float)
    q = np.asarray(q, dtype=float)
    return float(np.log2(np.sum(p**alpha * q ** (1.0 - alpha))) / (alpha - 1.0))


def classical_kl(p, q):
    p = np.asarray(p, dtype=float)
    q = np.asarray(q, dtype=float)
    mask = p > 0
    return float(np.sum(p[mask] * np.log2(p[mask] / q[mask])))


def random_hermitian_from(rng, d, scale=1.0):
    g = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    return scale * 0.5 * (g + g.conj().T)


def random_psd_from(rng, d, rank=None, scale=1.0):
    r = rank if rank is not None else d
    g = (rng.normal(size=(d, r)) + 1j * rng.normal(size=(d, r))) / np.sqrt(2.0)
    return scale * (g @ g.conj().T)


@pytest.fixture
def rng():
    return substream(20240)


@pytest.fixture
def count_calls(monkeypatch):
    """``count_calls(owner, name)`` replaces ``owner.name`` for the test,
    and every qrenyi module's binding of the same function, with a wrapper
    that appends each call's positional arguments to the list it returns."""

    def install(owner, name):
        calls = []
        original = getattr(owner, name)

        def counting(*args, **kwargs):
            calls.append(args)
            return original(*args, **kwargs)

        monkeypatch.setattr(owner, name, counting)
        for mod_name, mod in list(sys.modules.items()):
            if mod_name.split(".")[0] != "qrenyi":
                continue
            for key, val in list(vars(mod).items()):
                if val is original:
                    monkeypatch.setattr(mod, key, counting)
        return calls

    return install
