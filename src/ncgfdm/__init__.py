"""N-continuous GFDM: waveform simulation library and experiment runner.

The package builds GFDM transceivers on the Gabor structure of the
modulation matrix, adds the boundary smoothing that keeps the transmitted
signal and its first V derivatives continuous across symbols, and provides
the receiver-side iterative recovery plus spectral, SIR, power, and BER
analyses.
"""

from .params import (
    Constellation,
    DimensionError,
    SeededRng,
    WaveformParams,
    demap_symbols,
    hard_decision,
    qam_constellation,
)
from .filterbank import (
    PrototypeFilter,
    SingularMatrixError,
    TransmitMatrix,
    build_transmit_matrix,
    prototype_filter,
)
from .smoothing import (
    BasisSet,
    NcOperators,
    boundary_mismatch_dft,
    build_basis,
    build_nc_operators,
    coefficient_stream,
    derivative_scales,
    smooth_stream,
    synthesis_waveform,
)
from .channel import (
    ChannelProfile,
    ChannelRealization,
    DeepFadeError,
    JakesFadingProcess,
    apply_channel,
    awgn,
    eva_profile,
    zf_equalize,
)
from .transceiver import recover_iterative
from .spectrum import (
    PsdEstimate,
    SirReport,
    WelchAccumulator,
    closed_form_sir,
    empirical_sir,
    mc_smooth_power,
    normalize_inband,
    psd_sample_stream,
    sidelobe_level,
    sir_report,
)
from .experiments import (
    ExperimentConfig,
    ResultTable,
    run_ber,
    run_experiment,
    run_power,
    run_psd,
    run_sir,
    run_validation,
    write_tables,
)

__version__ = "0.1.0"
