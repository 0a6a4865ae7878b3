"""Probabilistic verifiers (Section IV of the paper).

A verifier derives lower and/or upper bounds on qualification
probabilities with algebraic operations only — no integration.  The
three subregion-based verifiers, in ascending cost order (Table III):

========  ==============  =========  ==========================
Verifier  Bound           Cost       Key formula
========  ==============  =========  ==========================
RS        upper           O(|C|)     Lemma 1:  p_i.u ≤ 1 − s_iM
L-SR      lower           O(|C|·M)   Lemma 2 / Equation 4
U-SR      upper           O(|C|·M)   Equation 5 / Equation 4
========  ==============  =========  ==========================

:class:`~repro.core.verifiers.chain.VerifierChain` strings them
together with the classifier exactly as Figure 5 prescribes, stopping
as soon as no candidate is left unknown.
"""

from repro.core.verifiers.base import BoundUpdate, Verifier
from repro.core.verifiers.chain import ChainOutcome, VerifierChain, default_chain
from repro.core.verifiers.lsr import LowerSubregionVerifier
from repro.core.verifiers.rs import RightmostSubregionVerifier
from repro.core.verifiers.usr import UpperSubregionVerifier

__all__ = [
    "BoundUpdate",
    "ChainOutcome",
    "LowerSubregionVerifier",
    "RightmostSubregionVerifier",
    "UpperSubregionVerifier",
    "Verifier",
    "VerifierChain",
    "default_chain",
]
