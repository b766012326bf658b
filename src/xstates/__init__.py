"""N-qubit X states: operator algebra, geometry, witnesses, and channels."""

from .algebra import (DesignReport, LineSet, OperatorSet, SectorDecomposition,
                      center, generate_set, incidence_json, iterate_construction,
                      lines, sector_decomposition, verify_design)
from .channels import (Channel, Trajectory, apply_channel, standard_channel,
                       strength_grid, sweep)
from .linalg import (ConvergenceError, ToleranceError, expectation,
                     hermitian_eigen, kron, matrix_from_json, matrix_to_csv,
                     matrix_to_json, partial_trace, partial_transpose)
from .model import (StateReport, XStateParams, bell_diagonal, decompose,
                    family_residual, ghz_params, materialize, named_example,
                    params_from_json, params_to_json, validate, werner)
from .pauli import (AXES, FRAME_X, FRAME_Y, FRAME_Z, FRAMES, PAULI_MATRICES,
                    AxisFrame, PauliString, all_proper_frames, apply_frame,
                    resolve_frame, xy_product, z_product)
from .simplex import LabeledSimplex, SimplexFace, build_simplex, export, face_label
from .witness import (PureState, Witness, concurrence, dicke_state,
                      evaluate_witness, ghz_state, make_witness, negativity,
                      witness_report)

__version__ = "0.1.0"
