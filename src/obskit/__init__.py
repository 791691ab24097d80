"""Finite observers: feedback loops, equivalence, metrics, and CA embeddings.

``import obskit`` loads no submodule.  The first use of a public name, or
of a submodule's name, imports its module (PEP 562), so a program pays
only for the modules it uses.
"""

import importlib as _importlib

_NAMES = {
    "ca": """CARule EmbeddedSystem ca_evolution ca_step damping_observer embed pbm_bytes
        render_text rule_table run_embedded transparent_observer""",
    "composition": """FactEntry FactLedger LabScriptRun MetaRegistry RuleFamily RuleTable
        WellFoundedReport Wiring check_well_founded default_registry facts_relative_to
        known_spin_values record_fact run_lab_script second_order_wrap stack""",
    "core": "CoupledSystem Environment MinimalityReport Observer Trace TraceRecord validate_minimal",
    "documents": "parse_environment parse_observer serialize_environment serialize_observer",
    "errors": """CapExceededError DefinitionError DocumentCompletenessError DocumentError
        DocumentParseError DocumentReferenceError EncodingError IdentifierError
        IncompatibleAlphabetsError LedgerOrderError MetaCycleError MorphismShapeError
        NumericalError ObskitError WiringError""",
    "metrics": """GOAL_REACHED GOAL_UNREACHABLE TRANSIENT_TO_CYCLE AdaptationResult
        ComplexityReport adaptation_time complexity expected_hitting_time""",
    "morphism": """BehavioralPartition MorphismCheck ObserverMorphism canonical_invariants
        check_homomorphism equivalence_partition equivalent find_isomorphism identity_morphism
        minimize""",
}
# each public name, and each of the seven submodules' own names, to the module that defines it
_MODULE_OF = {name: module for module, names in _NAMES.items() for name in [module, *names.split()]}

__all__ = sorted(_MODULE_OF)
__version__ = "0.1.0"


def __getattr__(name: str):
    if name not in _MODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    module = _importlib.import_module(f".{_MODULE_OF[name]}", __name__)
    value = globals()[name] = module if name in _NAMES else getattr(module, name)
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
