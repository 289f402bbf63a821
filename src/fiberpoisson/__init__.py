"""Exact-arithmetic toolkit for coupling Poisson tensors on fiber-bundle charts."""

from .series import ChartSpec, FiberSeries, ChartMismatchError
from .parse import parse_series, ParseError
from .multivector import (Multivector, HForm, wedge, interior, schouten,
                          jacobiator, lie_derivative)
from .connection import Connection
from .coupling import (GeometricData, CouplingTensor, assemble, decompose,
                       verify_coupling_conditions, v_sharp)
from .algebroid import (AlgebroidData, ConnectionChange, check_admissible,
                        build_geometric_data, build_coupling, coisotropy_check,
                        change_connection, verify_connection_equivalence,
                        relative_cocycle, cocycle_hform)
from .moser import (PhiForm, HomotopyFamily, build_family, phi_bracket,
                    solve_homological, horizontal_field, verify_deformation_equation,
                    numeric_pullback_check, data_equivalence_check,
                    DEFAULT_T_SAMPLES)
from .linearize import linearize_data, extract_algebroid, first_approx_check
from .holonomy import BasePath, parallel_transport, holonomy_compare
from .report import CheckReport, CheckEntry, InternalInvariantError

__all__ = [
    "ChartSpec", "FiberSeries", "ChartMismatchError",
    "parse_series", "ParseError",
    "Multivector", "HForm", "wedge", "interior", "schouten", "jacobiator",
    "lie_derivative",
    "Connection",
    "GeometricData", "CouplingTensor", "assemble", "decompose",
    "verify_coupling_conditions", "v_sharp",
    "AlgebroidData", "ConnectionChange", "check_admissible",
    "build_geometric_data", "build_coupling", "coisotropy_check",
    "change_connection", "verify_connection_equivalence", "relative_cocycle",
    "cocycle_hform",
    "PhiForm", "HomotopyFamily", "build_family", "phi_bracket",
    "solve_homological", "horizontal_field", "verify_deformation_equation",
    "numeric_pullback_check", "data_equivalence_check", "DEFAULT_T_SAMPLES",
    "linearize_data", "extract_algebroid", "first_approx_check",
    "BasePath", "parallel_transport", "holonomy_compare",
    "CheckReport", "CheckEntry", "InternalInvariantError",
]

__version__ = "0.1.0"
