"""acfshape: ACF statistics and pulse-shape design for random modulated signals.

The package is organized by pipeline stage:

    constellation  symbol alphabets and their fourth moments
    modulation     unitary bases (SC, OFDM, CDMA, custom)
    pulse          Nyquist pulses described by in-band spectral gains
    acfstats       closed-form mean/variance of the periodic ACF
    montecarlo     empirical validation of the closed forms
    qpsolver       exact active-set least squares and Lawson minimax
    shaping        sidelobe-shaping gain design (isl and psl programs)
    ranging        matched-filter range estimation experiments
    tableio        text-file inputs and deterministic CSV/JSON outputs

The command-line surface lives in ``acfshape.cli`` and is installed as
the ``acfshape`` console script.
"""

__version__ = "0.1.0"

from . import (
    acfstats,
    constellation,
    modulation,
    montecarlo,
    pulse,
    qpsolver,
    ranging,
    shaping,
    tableio,
)

__all__ = [
    "__version__",
    "acfstats",
    "constellation",
    "modulation",
    "montecarlo",
    "pulse",
    "qpsolver",
    "ranging",
    "shaping",
    "tableio",
]
