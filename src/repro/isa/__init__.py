"""Trace instruction-set layer.

The reproduction is trace driven: workload generators (:mod:`repro.workloads`)
emit committed-instruction streams, born as rows of the columnar trace
form (:mod:`repro.isa.compiled`), that the timing model (:mod:`repro.cpu`)
replays.  This package defines that form and the equivalent
:class:`~repro.isa.instruction.TraceInstruction` record format, the opcode
classes, the register namespace, and the value-width utilities that the
Thermal Herding techniques build on.
"""

from repro.isa.opcodes import OpClass, FunctionalUnit, FU_FOR_OP, OP_LATENCY
from repro.isa.instruction import TraceInstruction
from repro.isa.registers import (
    NUM_INT_REGS,
    NUM_FP_REGS,
    RegisterClass,
    register_class,
)
from repro.isa.trace import Trace, TraceStats
from repro.isa.builder import TraceBuilder
from repro.isa.serialization import load_trace, save_trace
from repro.isa.values import (
    LOW_WIDTH_BITS,
    WORD_BITS,
    WORDS_PER_VALUE,
    VALUE_BITS,
    UpperBitsEncoding,
    classify_upper_bits,
    is_low_width,
    sign_extend,
    significant_width,
    split_words,
    upper_bits,
    join_words,
)

__all__ = [
    "OpClass",
    "FunctionalUnit",
    "FU_FOR_OP",
    "OP_LATENCY",
    "TraceInstruction",
    "NUM_INT_REGS",
    "NUM_FP_REGS",
    "RegisterClass",
    "register_class",
    "Trace",
    "TraceStats",
    "TraceBuilder",
    "load_trace",
    "save_trace",
    "LOW_WIDTH_BITS",
    "WORD_BITS",
    "WORDS_PER_VALUE",
    "VALUE_BITS",
    "UpperBitsEncoding",
    "classify_upper_bits",
    "is_low_width",
    "sign_extend",
    "significant_width",
    "split_words",
    "upper_bits",
    "join_words",
]
