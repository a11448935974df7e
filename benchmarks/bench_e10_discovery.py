"""E10 (Section IV-C): the metadata-leakage / matching-precision trade-off.

Providers choose how specifically to annotate their data.  Fine annotations
let the storage subsystem match workloads precisely but reveal more about
what the provider holds.  This experiment sweeps annotation generalization
(0 = exact leaf concept with properties, 3 = near-root with nothing) and
reports, over a fixed portfolio of workload requirements:

* metadata leakage in bits (information-theoretic, uniform leaf prior);
* matching recall — the fraction of truly-eligible (provider, workload)
  pairs the metadata still discovers;
* matching precision — of the pairs proposed, how many are truly eligible
  (coarse annotations create false matches that would waste executor
  verification work).
"""

from __future__ import annotations

import numpy as np

from repro.bench import Experiment, higher_is_better, info, lower_is_better
from repro.storage.semantic import (
    AllOf,
    ConceptRequirement,
    Ontology,
    RangeRequirement,
    SemanticAnnotation,
    annotation_leakage_bits,
    generalize_annotation,
)
from reporting import format_table, report

#: The true data each provider holds: (leaf concept, sampling rate).
PROVIDERS = [
    ("temperature", 1.0), ("temperature", 0.1), ("humidity", 2.0),
    ("heart_rate", 1.0), ("heart_rate", 0.25), ("spo2", 1.0),
    ("accelerometer", 50.0), ("gps_trace", 0.1),
    ("power_consumption", 0.5), ("battery_level", 0.05),
]

#: Workload requirements posted on the marketplace.
WORKLOADS = [
    AllOf((ConceptRequirement("environmental"),
           RangeRequirement("rate_hz", 0.5, 10.0))),
    AllOf((ConceptRequirement("physiological"),
           RangeRequirement("rate_hz", 0.2, 2.0))),
    ConceptRequirement("motion"),
    AllOf((ConceptRequirement("energy"),
           RangeRequirement("rate_hz", 0.1, 1.0))),
]


def truth_matrix(ontology):
    """Ground truth: does provider i truly satisfy workload j?"""
    truth = np.zeros((len(PROVIDERS), len(WORKLOADS)), dtype=bool)
    for i, (concept, rate) in enumerate(PROVIDERS):
        annotation = SemanticAnnotation(concept, {"rate_hz": rate})
        for j, requirement in enumerate(WORKLOADS):
            truth[i, j] = requirement.matches(ontology, annotation)
    return truth


def run_bench(quick: bool = False) -> dict:
    """The generalization sweep (deterministic: no randomness at all)."""
    ontology = Ontology.iot_default()
    truth = truth_matrix(ontology)
    rows = []
    recalls = []
    precisions = []
    leakages = []

    for levels in (0, 1, 2, 3):
        drop = ["rate_hz"] if levels >= 2 else []
        leakage_total = 0.0
        proposed = 0
        proposed_true = 0
        discovered_true = 0
        for i, (concept, rate) in enumerate(PROVIDERS):
            annotation = generalize_annotation(
                ontology, SemanticAnnotation(concept, {"rate_hz": rate}),
                levels=levels, drop_properties=drop,
            )
            leakage_total += annotation_leakage_bits(ontology, annotation)
            for j, requirement in enumerate(WORKLOADS):
                # Coarse annotations are matched optimistically on the
                # concept axis (any overlap) and permissively on dropped
                # properties — the storage layer cannot prove ineligibility.
                if requirement.matches(ontology, annotation):
                    matched = True
                else:
                    matched = _optimistic_match(ontology, requirement,
                                                annotation)
                if matched:
                    proposed += 1
                    if truth[i, j]:
                        proposed_true += 1
                        discovered_true += 1
        total_true = int(truth.sum())
        recall = discovered_true / total_true
        precision = proposed_true / proposed if proposed else 1.0
        mean_leakage = leakage_total / len(PROVIDERS)
        recalls.append(recall)
        precisions.append(precision)
        leakages.append(mean_leakage)
        rows.append([
            levels, f"{mean_leakage:.2f}", f"{recall:.2f}",
            f"{precision:.2f}", proposed,
        ])

    lines = format_table(
        ["generalization", "leak bits/provider", "recall",
         "precision", "pairs proposed"],
        rows,
    )
    metrics = {
        "recall_full_detail": higher_is_better(recalls[0],
                                               threshold_pct=1.0),
        "precision_full_detail": higher_is_better(precisions[0]),
        "leak_bits_most_generalized": lower_is_better(leakages[-1],
                                                      unit="bits"),
        "leak_monotone": higher_is_better(
            1.0 if leakages == sorted(leakages, reverse=True) else 0.0,
            threshold_pct=1.0),
        "leak_bits_full_detail": info(leakages[0], unit="bits"),
        "precision_most_generalized": info(precisions[-1]),
    }
    return {"metrics": metrics, "lines": lines, "recalls": recalls,
            "precisions": precisions, "leakages": leakages}


EXPERIMENT = Experiment(
    "E10", "metadata leakage vs matching precision", run_bench,
)


def test_e10_leakage_precision_tradeoff():
    payload = run_bench()
    report("E10", "annotation generalization: leakage vs matching",
           payload["lines"])

    leakages = payload["leakages"]
    # Leakage decreases monotonically with generalization...
    assert leakages == sorted(leakages, reverse=True)
    # ...full detail gives perfect discovery...
    assert payload["recalls"][0] == 1.0
    # ...and the most generalized annotations still discover everything but
    # at visibly worse precision (wasted executor verification).
    precisions = payload["precisions"]
    assert precisions[-1] < precisions[0]


def _optimistic_match(ontology, requirement, annotation) -> bool:
    """Can the requirement *possibly* match given coarse metadata?

    A concept clause may match when the annotation's concept subsumes the
    required one (the provider's true leaf might be inside); property
    clauses with missing properties are assumed satisfiable.
    """
    from repro.storage.semantic import (
        AllOf as All_,
        AnyOf as Any_,
        ConceptRequirement as Concept_,
        EqualsRequirement,
        OneOfRequirement,
        RangeRequirement as Range_,
    )

    if isinstance(requirement, All_):
        return all(_optimistic_match(ontology, clause, annotation)
                   for clause in requirement.clauses)
    if isinstance(requirement, Any_):
        return any(_optimistic_match(ontology, clause, annotation)
                   for clause in requirement.clauses)
    if isinstance(requirement, Concept_):
        return (ontology.subsumes(requirement.concept, annotation.concept)
                or ontology.subsumes(annotation.concept,
                                     requirement.concept))
    if isinstance(requirement, (Range_, EqualsRequirement,
                                OneOfRequirement)):
        if requirement.property_name not in annotation.properties:
            return True  # unknown -> possibly satisfiable
        return requirement.matches(ontology, annotation)
    return False
