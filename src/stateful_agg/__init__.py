"""Secure stateful aggregation: a library and round-based simulator.

A server keeps an append-only encrypted state; cohorts of ephemeral clients
append aggregates to it (store) or release linear functions of it (reveal),
with the decryption key additively reshared from cohort to cohort.  On top
sit program generators for differentially private prefix-sum release and a
parameter/cost calculator for deployment-scale settings.
"""

from .dp import BandedMatrix, PostProcessor, baseline_program, mf_program, tree_program
from .dropout import QuorumError, run_dropout_protocol
from .ideal import run_ideal
from .params import ParamSet, cost_model, grid_search, make_paramset
from .program import Instruction, InputRule, Program, validate
from .protocol import ProtocolError, run_protocol
from .ring import RingElement, RingParams

__all__ = [
    "BandedMatrix",
    "PostProcessor",
    "baseline_program",
    "mf_program",
    "tree_program",
    "QuorumError",
    "run_dropout_protocol",
    "run_ideal",
    "ParamSet",
    "cost_model",
    "grid_search",
    "make_paramset",
    "Instruction",
    "InputRule",
    "Program",
    "validate",
    "ProtocolError",
    "run_protocol",
    "RingElement",
    "RingParams",
]

__version__ = "0.1.0"
