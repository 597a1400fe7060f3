"""Counting-backend router state: recursion vs genfunc vs automaton.

The engine has three exact counting backends:

* ``"recursion"`` -- the paper's splinter-based summation recursion
  (:mod:`repro.core.convex`), fully general: symbolic constants,
  polynomial summands, any dimension, bound strategies.
* ``"genfunc"`` -- the generating-function engine
  (:mod:`repro.genfunc`): Brion/Barvinok-style signed unimodular
  cones, exact and coefficient-size-independent, on a concrete
  fragment (no free symbols, constant summand, residual dimension
  <= 2).
* ``"automaton"`` -- the binary-DFA engine (:mod:`repro.automaton`):
  LSBF two's-complement carry automata, exact on concrete formulas
  with constant summands in any dimension (within a state budget),
  and the only backend that *amortizes* -- one build per formula,
  then O(bits) membership and box/threshold count queries.

Which one ``count`` / ``sum_poly`` try first is process-global state
managed here: the ``REPRO_BACKEND`` environment variable picks the
startup default (``recursion`` when unset), :func:`set_backend`
switches at runtime (returning the previous choice so scopes can
restore it), and the per-call ``backend=`` keyword overrides without
touching the global.

**Fallback rule:** the accelerated backends signal anything outside
their fragment by raising their ``UnsupportedFormula``
(:class:`repro.genfunc.UnsupportedFormula` /
:class:`repro.automaton.UnsupportedFormula`); the router catches
exactly that exception and re-answers with the recursion, bumping the
``genfunc_fallbacks`` / ``automaton_fallbacks`` stats counter.  Every
other exception (including ``UnboundedSumError``, which all backends
share) propagates.  Selecting an accelerated backend is therefore
always safe: answers either come from it or from the recursion, never
from neither.

This module imports nothing from the rest of the package so any layer
(CLI, service, serve) can depend on it without cycles.
"""

import os

BACKENDS = ("recursion", "genfunc", "automaton")


def _init_backend() -> str:
    name = os.environ.get("REPRO_BACKEND", "recursion")
    if name not in BACKENDS:
        raise ValueError(
            "REPRO_BACKEND must be one of %s, got %r"
            % ("/".join(BACKENDS), name)
        )
    return name


_BACKEND = _init_backend()


def current_backend() -> str:
    """The process-global default backend (one of :data:`BACKENDS`)."""
    return _BACKEND


def set_backend(name: str) -> str:
    """Switch the process-global default backend; returns the previous one."""
    global _BACKEND
    if name not in BACKENDS:
        raise ValueError(
            "backend must be one of %s, got %r" % ("/".join(BACKENDS), name)
        )
    previous = _BACKEND
    _BACKEND = name
    return previous


def resolve_backend(name=None) -> str:
    """Validate a per-call override, or return the global default."""
    if name is None:
        return _BACKEND
    if name not in BACKENDS:
        raise ValueError(
            "backend must be one of %s, got %r" % ("/".join(BACKENDS), name)
        )
    return name
