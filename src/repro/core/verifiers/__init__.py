"""Probabilistic verifiers (Section IV of the paper).

A verifier derives lower and/or upper bounds on qualification
probabilities with algebraic operations only — no integration.  The
three subregion-based verifiers, in ascending cost order (Table III):

========  ==============  =========  ==========================
Verifier  Bound           Cost       Key formula
========  ==============  =========  ==========================
RS        upper           O(|C|)     Lemma 1:  p_i.u ≤ 1 − s_iM
L-SR      lower           O(|C|·M)   Lemma 2 ∨ midpoint / Eq. 4
U-SR      upper           O(|C|·M)   Equation 5 / Equation 4
========  ==============  =========  ==========================

:func:`~repro.core.verifiers.fused.verify` runs them with the
classifier as Figure 5 prescribes, in one pass that bounds only the
candidates still unknown and stops as soon as none is left; the engine
verifies through it.  :class:`~repro.core.verifiers.chain.VerifierChain`
and the three verifier classes are the staged reference it is checked
against, bit for bit.
"""

from repro.core.verifiers.base import BoundUpdate, Verifier
from repro.core.verifiers.chain import ChainOutcome, VerifierChain, default_chain
from repro.core.verifiers.fused import VERIFIERS, Verified, verify
from repro.core.verifiers.lsr import LowerSubregionVerifier
from repro.core.verifiers.rs import RightmostSubregionVerifier
from repro.core.verifiers.usr import UpperSubregionVerifier

__all__ = [
    "BoundUpdate",
    "ChainOutcome",
    "LowerSubregionVerifier",
    "RightmostSubregionVerifier",
    "UpperSubregionVerifier",
    "VERIFIERS",
    "Verified",
    "Verifier",
    "VerifierChain",
    "default_chain",
    "verify",
]
