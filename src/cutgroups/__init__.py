"""Rationality analysis of finite permutation groups.

Decides whether permutation groups are rational, cut (inverse semi-rational)
or semi-rational, computes character-field degrees through the Galois action
on conjugacy classes, and batch-checks a suite of structural theorems and
open-question predicates over group corpora.
"""

from .errors import (
    BadParam,
    BoundExceeded,
    CapExceeded,
    CorpusError,
    CorpusSyntaxError,
    CutgroupsError,
    DegreeMismatch,
    DegreeTooLarge,
    DuplicateId,
    EmptyGenerators,
    MalformedCycle,
    NotCoprime,
    OrderMismatch,
    PointOutOfRange,
    RepeatedPoint,
)
from .perm import (
    Permutation,
    compose,
    format_permutation,
    parse_permutation,
    power,
)
from .group import DEFAULT_CAP, PermGroup
from .structure import (
    ClassTable,
    abelianization_exponent_divides,
    conjugacy_classes,
    derived_subgroup,
    is_elementary_abelian,
    is_solvable,
)
from .alternating import (
    AltClassDescriptor,
    alternating_classes,
    alternating_exponent,
    alternating_power_conjugate,
)
from .rationality import (
    CheckResult,
    ClassRationality,
    GroupReport,
    class_stabilizer,
    classify_class,
    conjecture_suite,
    group_rationality,
    p_core,
    qg_degree,
    qg_degree_alternating,
    residues_coprime,
    sylow,
)
from .constructions import (
    abelian,
    alternating,
    cyclic,
    dicyclic,
    dihedral,
    direct_product,
    iterated_wreath,
    parse_family_spec,
    sylnorm,
    symmetric,
    wreath,
)
from .corpus import (
    GroupRecord,
    SurveyConfig,
    SurveyReport,
    bundled_corpus_path,
    parse_corpus,
    run_survey,
)

__version__ = "0.1.0"
