"""SparStencil core: the paper's contribution.

The three stages map one-to-one onto the paper's Section 3:

* :mod:`repro.core.flatten` / :mod:`repro.core.crush` /
  :mod:`repro.core.morphing` — Adaptive Layout Morphing (§3.1);
* :mod:`repro.core.staircase` / :mod:`repro.core.conflict` /
  :mod:`repro.core.matching` / :mod:`repro.core.pit` /
  :mod:`repro.core.conversion` — Structured Sparsity Conversion (§3.2);
* :mod:`repro.core.perf_model` / :mod:`repro.core.layout_search` /
  :mod:`repro.core.metadata` / :mod:`repro.core.lookup_table` /
  :mod:`repro.core.codegen` / :mod:`repro.core.pipeline` — Automatic Kernel
  Generation (§3.3).
"""

from repro.core.flatten import FlattenResult, flatten_stencil
from repro.core.morphing import MorphConfig, MorphResult, morph_stencil, assemble_output
from repro.core.staircase import (
    is_staircase,
    staircase_bandwidth,
    BlockStructure,
    block_structure_from_morph,
)
from repro.core.conflict import conflict_matrix
from repro.core.matching import (
    MatchingResult,
    hierarchical_matching,
    greedy_matching,
    matching_to_permutation,
)
from repro.core.fusion import fuse_pattern, fused_iterations
from repro.core.pit import apply_pit, invert_permutation, pad_operands
from repro.core.conversion import ConversionResult, convert_to_24
from repro.core.perf_model import PerfEstimate, estimate_layout
from repro.core.layout_search import (
    LayoutCandidate,
    LayoutSearchResult,
    search_layout,
    search_layout_many,
)
from repro.core.metadata import SparseMetadata, build_metadata
from repro.core.lookup_table import LookupTable, build_lookup_table, gather_b_matrix
from repro.core.codegen import (
    BACKEND_ENV_VAR,
    DEFAULT_BACKEND,
    KernelPlan,
    NumpyBackend,
    StencilBackend,
    TcuSimBackend,
    generate_kernel,
    get_backend,
    register_backend,
    registered_backends,
    render_cuda_source,
    resolve_backend,
)
from repro.core.pipeline import (
    CompileOptions,
    CompiledStencil,
    StencilRunResult,
    compile_cached,
    compile_resolved,
    compile_stencil,
    resolve_compile_options,
)

__all__ = [
    "FlattenResult",
    "flatten_stencil",
    "MorphConfig",
    "MorphResult",
    "morph_stencil",
    "assemble_output",
    "is_staircase",
    "staircase_bandwidth",
    "BlockStructure",
    "block_structure_from_morph",
    "conflict_matrix",
    "MatchingResult",
    "hierarchical_matching",
    "greedy_matching",
    "matching_to_permutation",
    "fuse_pattern",
    "fused_iterations",
    "apply_pit",
    "invert_permutation",
    "pad_operands",
    "ConversionResult",
    "convert_to_24",
    "PerfEstimate",
    "estimate_layout",
    "LayoutCandidate",
    "LayoutSearchResult",
    "search_layout",
    "search_layout_many",
    "SparseMetadata",
    "build_metadata",
    "LookupTable",
    "build_lookup_table",
    "gather_b_matrix",
    "KernelPlan",
    "generate_kernel",
    "render_cuda_source",
    "StencilBackend",
    "TcuSimBackend",
    "NumpyBackend",
    "DEFAULT_BACKEND",
    "BACKEND_ENV_VAR",
    "register_backend",
    "get_backend",
    "resolve_backend",
    "registered_backends",
    "CompileOptions",
    "CompiledStencil",
    "StencilRunResult",
    "compile_cached",
    "compile_resolved",
    "compile_stencil",
    "resolve_compile_options",
]
