"""Deterministic construction, validation and exact load/MG analysis of
Wyner-linear, hexagonal and sectorized-hexagonal interference networks
under mixed-delay cell-association schemes."""

from .association import Association, Role, Scheme, assign, check_params, valid_d
from .lattice import hex_distance
from .loads import (ClosedForm, LoadReport, closed_form, finite_prelogs,
                    formulas, mixed_subnet_counts, message_ledger, subnet_sizes)
from .regions import (HalfPlane, MgPoint, MgRegion, achievable_region,
                      boundary_polyline, contains, convex_hull, is_subset,
                      outer_bound_wyner, outer_polygon_wyner, region_subset)
from .topology import (HEX, SECTORED, WYNER, Network, build_hex,
                       build_hex_torus, build_sectored_hex,
                       build_sectored_hex_torus, build_wyner)
from .validation import (Subnet, Subnets, ValidationReport, check_round_split,
                         subnet_decompose, validate)

__all__ = [
    "Association", "Role", "Scheme", "assign", "check_params", "valid_d", "hex_distance",
    "ClosedForm", "LoadReport", "closed_form",
    "finite_prelogs", "formulas", "mixed_subnet_counts", "message_ledger", "subnet_sizes",
    "HalfPlane", "MgPoint", "MgRegion", "achievable_region", "boundary_polyline", "contains",
    "convex_hull", "is_subset", "outer_bound_wyner", "outer_polygon_wyner", "region_subset",
    "HEX", "SECTORED", "WYNER", "Network", "build_hex", "build_hex_torus",
    "build_sectored_hex", "build_sectored_hex_torus", "build_wyner", "Subnet", "Subnets",
    "ValidationReport", "check_round_split", "subnet_decompose", "validate",
]
