"""PREPARE core: the paper's primary contribution.

Online anomaly prediction (2-dependent Markov value prediction + TAN
classification), k-of-W false-alarm filtering, cause inference with
TAN attribute attribution, and prediction-driven prevention actuation
with effectiveness validation — assembled into the online loop by
:class:`~repro.core.controller.PrepareController`.
"""

from repro._lazy import exports

#: Submodule → the names this package re-exports from it.  Each name is
#: imported on first access (PEP 562), so a serving process that needs
#: the predictor never imports the controller, the simulator or the apps.
_ORIGINS = {
    "actuation": (
        "METRIC_RESOURCE_MAP",
        "EffectivenessValidator",
        "PreventionAction",
        "PreventionActuator",
        "ValidationOutcome",
    ),
    "bayes": ("NaiveBayesClassifier", "NotTrainedError"),
    "controller": ("AlertRecord", "PrepareConfig", "PrepareController"),
    "discretization": ("DEFAULT_BINS", "Discretizer"),
    "events": ("ControllerEvent", "EventLog"),
    "filtering": (
        "DEFAULT_K",
        "DEFAULT_W",
        "MajorityVoteFilter",
        "filter_alert_sequence",
    ),
    "inference": ("CauseInference", "Diagnosis", "detect_change_point"),
    "labeling": ("TrainingBuffer", "label_samples"),
    "localization": ("DeviationLocalizer", "violation_epochs"),
    "markov": ("MarkovModel", "SimpleMarkovModel", "TwoDependentMarkovModel"),
    "predictor": (
        "AnomalyPredictor",
        "PredictionResult",
        "monolithic_attributes",
    ),
    "tan": ("TANClassifier",),
    "unsupervised": ("OutlierDetector",),
}

__all__ = sorted(name for names in _ORIGINS.values() for name in names)

__getattr__, __dir__ = exports(__name__, globals(), _ORIGINS)
