"""The PREPARE controller: the online predict-diagnose-prevent loop.

Wires the four modules of Fig. 1 together on the monitoring cadence:

1. **VM monitoring** delivers one ``(vm, attr)`` block of samples every
   sampling interval; it lands as one column of the fleet's labelled
   training ring.
2. **Online anomaly prediction** — once models are trained, each VM's
   predictor classifies the Markov-predicted state one look-ahead
   window ahead; raw alerts stream through the per-VM k-of-W filter.
3. **Online anomaly cause inference** — confirmed alerts yield a
   :class:`~repro.core.inference.Diagnosis` (faulty VMs + TAN-ranked
   metrics + workload-change flag).
4. **Predictive prevention actuation** — the actuator scales/migrates,
   and the effectiveness validator escalates to the next-ranked metric
   when an action provably changed nothing.

Two degraded modes reproduce the paper's baselines: with
``prediction_enabled=False`` the controller is exactly the *reactive
intervention* scheme (same inference and actuation, but triggered only
by an observed SLO violation); dropping the controller entirely is the
*without intervention* scheme.

Models are trained online from automatically labelled data, so during
the first injection of a never-seen fault the controller necessarily
falls back to the reactive path — matching the paper's protocol where
the model "learns the anomaly during the first fault injection and
starts to make prediction for the second injected fault".
"""

from __future__ import annotations

import dataclasses
import math
from collections import deque
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.apps.base import DistributedApplication
from repro.core import refits
from repro.core.actuation import (
    EffectivenessValidator,
    PreventionAction,
    PreventionActuator,
    ValidationOutcome,
)
from repro.core.events import EventLog
from repro.core.filtering import DEFAULT_K, DEFAULT_W, MajorityVoteFilter
from repro.core.fleet import FleetScorer
from repro.core.inference import CauseInference, Diagnosis
from repro.core.labeling import TrainingBuffer, TrainingRing
from repro.core.localization import DeviationLocalizer, violation_epochs
from repro.core.predictor import AnomalyPredictor, PredictionResult
from repro.obs import (
    NULL_OBS,
    STAGE_ACTUATE,
    STAGE_CLASSIFY,
    STAGE_DIAGNOSIS,
    STAGE_INGEST,
    STAGE_PREDICT,
    STAGE_RETRAIN,
    STAGE_VALIDATE,
)
from repro.sim.cluster import Cluster
from repro.sim.engine import Simulator
from repro.sim.monitor import ATTRIBUTES, SampleBlock, VMMonitor

__all__ = ["PrepareConfig", "PrepareController", "AlertRecord"]


@dataclass
class PrepareConfig:
    """Tunables of the PREPARE loop (paper defaults)."""

    #: Look-ahead window for prediction, seconds (Sec. II-B).
    lookahead_seconds: float = 30.0
    #: Single states per attribute.
    n_bins: int = 8
    #: "2dep" (paper) or "simple" (Fig. 11 baseline).
    markov: str = "2dep"
    #: "tan" (paper) or "naive" (baseline from [10]).
    classifier: str = "tan"
    #: "soft" (expected Eq. 1 statistic, default) or "hard" (classify
    #: the rounded point prediction — the paper's original mode).
    prediction_mode: str = "soft"
    #: Class-prior policy: "balanced" (default), "capped", "empirical".
    class_prior: str = "balanced"
    #: False disables the robustness extensions (attribute selection,
    #: ordinal smoothing, support masks, CPT backoff) — the classic
    #: algorithm, for ablation.
    robust: bool = True
    #: k-of-W false-alarm filter (Sec. II-C; k=3, W=4 in the paper).
    filter_k: int = DEFAULT_K
    filter_w: int = DEFAULT_W
    #: Retrain the per-VM models every this many samples.
    retrain_every: int = 12
    #: Minimum buffered samples before first training.
    min_training_samples: int = 24
    #: Minimum abnormal samples a VM must be implicated in before its
    #: model trains — a classifier built from one or two violated
    #: samples is noise, and a noisy model spams false alarms.
    min_abnormal_samples: int = 4
    #: Consecutive violated monitoring ticks before the reactive path
    #: declares an SLO violation (real monitors debounce flapping and
    #: an external SLO-tracking tool reports with its own cadence).
    reactive_confirmations: int = 4
    #: Per-VM minimum gap between prevention actions, seconds.
    action_cooldown: float = 30.0
    #: Cap on VMs acted upon per confirmed alert event.
    max_vms_per_event: int = 2
    #: False disables the predictive path -> reactive intervention.
    prediction_enabled: bool = True
    #: False observes/alerts but never actuates (debugging aid).
    prevention_enabled: bool = True
    #: Validation look-back/look-ahead width, samples, and settle time.
    validation_samples: int = 4
    validation_settle: float = 45.0
    #: Margin (in nats of classifier log-odds) a *predicted* state must
    #: exceed to raise a raw alert.  Zero is Eq. (1) verbatim; a small
    #: positive margin demands confident evidence before acting on a
    #: forecast (the reactive path, triggered by an actual SLO
    #: violation, always uses the plain Eq. (1) sign).
    alert_threshold: float = 0.0
    #: Predictive-alert suppression window after any hypervisor
    #: operation touches a VM (scaling, migration, elastic scale-back).
    #: Allocation changes shift the very metric distributions the
    #: models were trained on, so alerts raised while the guest
    #: re-equilibrates are meaningless; suppression must end before
    #: validation matures so the validator sees fresh alert state.
    post_action_grace: float = 35.0
    #: Staleness bound on last-known-good imputation, seconds.  Missing
    #: or NaN-corrupted samples are imputed from the VM's last real
    #: reading to keep the per-VM training buffers aligned, but once a
    #: VM has had no real contact for longer than this the imputed
    #: stream is fiction: prediction for that VM is *skipped* (not
    #: aborted) until the monitor recovers.
    imputation_max_staleness: float = 30.0

    def __post_init__(self) -> None:
        # Campaign specs set these fields from JSON sweep axes, so a bad
        # value must fail here, by name — not as a ZeroDivisionError (or
        # a silently shortened look-ahead) halfway through a run.
        smallest = {
            "retrain_every": 1, "n_bins": 2, "min_training_samples": 2,
            "reactive_confirmations": 1, "action_cooldown": 0.0,
            "post_action_grace": 0.0,
        }
        for name, low in smallest.items():
            if not low <= getattr(self, name) < math.inf:
                raise ValueError(
                    f"{name} must be finite and >= {low}, "
                    f"got {getattr(self, name)!r}"
                )
        if not 0.0 < self.lookahead_seconds < math.inf:
            raise ValueError(
                "lookahead_seconds must be finite and > 0, "
                f"got {self.lookahead_seconds!r}"
            )


@dataclass(frozen=True)
class AlertRecord:
    """One confirmed anomaly alert event."""

    timestamp: float
    vms: Tuple[str, ...]
    proactive: bool


class PrepareController:
    """Online PREPARE instance managing one distributed application."""

    def __init__(
        self,
        sim: Simulator,
        cluster: Cluster,
        app: DistributedApplication,
        monitor: VMMonitor,
        actuator: PreventionActuator,
        config: Optional[PrepareConfig] = None,
        attributes: Sequence[str] = ATTRIBUTES,
        obs=None,
        alarms=None,
    ) -> None:
        self._sim = sim
        self.cluster = cluster
        self.app = app
        self.monitor = monitor
        self.actuator = actuator
        self.config = config or PrepareConfig()
        self.attributes = tuple(attributes)
        #: Optional :class:`~repro.serve.alarms.AlarmManager`.  None
        #: (the default) keeps every decision byte-identical to an
        #: alarm-free controller: the hooks below only ever *read*
        #: controller state and raise/resolve operator alarms.
        self.alarms = alarms
        #: per-VM anomaly-type key of the alarm this controller raised
        self._alarm_kinds: Dict[str, str] = {}

        vm_names = [vm.name for vm in app.vms]
        #: The fleet's training windows: one ring, one row per VM per
        #: monitoring round, and a :class:`TrainingBuffer` view per VM.
        self._ring = TrainingRing(app.slo, vm_names, self.attributes)
        self.buffers: Dict[str, TrainingBuffer] = self._ring.buffers()
        self._index = {name: i for i, name in enumerate(vm_names)}
        #: Ring row of each row of the last block layout seen (-1: not
        #: a managed VM); None when the block lists the ring's VMs.
        self._block_vms: Optional[Tuple[str, ...]] = None
        self._block_rows: Optional[np.ndarray] = None
        self.predictors: Dict[str, AnomalyPredictor] = {
            name: AnomalyPredictor(
                self.attributes,
                n_bins=self.config.n_bins,
                markov=self.config.markov,
                classifier=self.config.classifier,
                prediction_mode=self.config.prediction_mode,
                class_prior=self.config.class_prior,
                robust=self.config.robust,
            )
            for name in vm_names
        }
        self.filters: Dict[str, MajorityVoteFilter] = {
            name: MajorityVoteFilter(self.config.filter_k, self.config.filter_w)
            for name in vm_names
        }
        self.inference = CauseInference()
        self.localizer = DeviationLocalizer()
        self.validator = EffectivenessValidator(
            window_samples=self.config.validation_samples,
            settle_seconds=self.config.validation_settle,
        )

        self.alerts: List[AlertRecord] = []
        self.diagnoses: List[Diagnosis] = []
        #: Structured decision log (see :mod:`repro.core.events`).
        self.events = EventLog()
        #: Observability handle (see :mod:`repro.obs`).  Defaults to
        #: the shared no-op instance, so instrumentation costs one
        #: no-op call per stage unless a real bundle is passed.
        self.obs = obs if obs is not None else NULL_OBS
        metrics = self.obs.metrics
        self._m_samples = metrics.counter(
            "prepare_samples_ingested_total",
            "Monitoring samples ingested by the controller")
        self._m_raw_alerts = metrics.counter(
            "prepare_raw_alerts_total",
            "Raw (pre-filter) predictive alerts", ("vm",))
        self._m_confirmed = metrics.counter(
            "prepare_alerts_confirmed_total",
            "k-of-W confirmed anomaly alerts", ("vm",))
        self._m_suppressed = metrics.counter(
            "prepare_alerts_suppressed_total",
            "Post-action alert suppression windows opened", ("vm",))
        self._m_actions = metrics.counter(
            "prepare_actions_total",
            "Prevention actions triggered", ("verb", "trigger"))
        self._m_validations = metrics.counter(
            "prepare_validations_total",
            "Effectiveness validation outcomes", ("outcome",))
        self._m_retrains = metrics.counter(
            "prepare_model_trainings_total",
            "Per-VM model (re)trainings completed")
        self._m_models = metrics.gauge(
            "prepare_models_trained",
            "VMs currently holding a trained model")
        self._m_pending = metrics.gauge(
            "prepare_pending_validations",
            "Prevention actions awaiting effectiveness validation")
        self._latest_results: Dict[str, PredictionResult] = {}
        #: Strength vectors (with scores) of the current alert episode
        #: per VM; diagnosis averages them so a single noisy sample
        #: cannot pick the wrong metric.  A normal result ends the
        #: episode and clears the window, so stale pre-onset strengths
        #: never blend into a fresh anomaly's attribution.
        self._recent_strengths: Dict[str, "deque[Tuple[float, Tuple[float, ...]]]"] = {
            name: deque(maxlen=self.config.filter_w) for name in vm_names
        }
        self._reactive_abnormal: Dict[str, bool] = {}
        #: Lazily built fleet-wide scorer shared by the predictive and
        #: reactive paths, and the refit count its membership was read
        #: at (see :meth:`_fleet_scorer`).
        self._scorer: Optional[FleetScorer] = None
        self._scorer_refits = -1
        self._last_action_at: Dict[str, float] = {}
        self._suppressed_until: Dict[str, float] = {}
        self._ops_seen = 0
        self._rounds = 0
        self._violated_ticks = 0
        self._attached = False
        # -- graceful-degradation state -------------------------------
        #: Timestamp of each VM's last *real* (non-imputed) sample, in
        #: ring order (NaN: none yet).  The last-known-good values and
        #: allocations are the ring's newest row.
        self._last_real = np.full(len(vm_names), np.nan)
        #: Flat degradation counters, merged into run telemetry.
        self.resilience_stats: Dict[str, int] = {
            "imputed_samples": 0,
            "blackout_skips": 0,
        }
        self._m_imputed = metrics.counter(
            "prepare_imputed_samples_total",
            "Samples imputed from last-known-good values", ("vm",))
        self._m_blackout_skips = metrics.counter(
            "prepare_blackout_skips_total",
            "Predictions skipped because a VM's data was too stale",
            ("vm",))

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def attach(self) -> None:
        """Subscribe to the monitor's sample stream."""
        if self._attached:
            raise RuntimeError("controller already attached")
        self.monitor.add_listener(self._on_block)
        self._attached = True

    @property
    def lookahead_steps(self) -> int:
        # Ceiling, not round(): the look-ahead window is a promise to
        # predict *at least* this far out, and banker's rounding would
        # silently shorten it at half-way points (12.5 s at a 5 s
        # interval must be 3 steps, not 2).  The epsilon absorbs float
        # division noise so exact multiples never round up a full step.
        ratio = self.config.lookahead_seconds / self.monitor.interval
        return max(1, math.ceil(ratio - 1e-9))

    def trained(self) -> bool:
        return any(p.trained for p in self.predictors.values())

    # ------------------------------------------------------------------
    # Main loop
    # ------------------------------------------------------------------
    def _on_block(self, block: SampleBlock) -> None:
        now = self._sim.now
        self._ingest(block, now)
        self._rounds += 1
        self._refresh_suppressions(now)

        if self._rounds % self.config.retrain_every == 0:
            with self.obs.span(STAGE_RETRAIN):
                self._retrain()

        slo_violated = self.app.slo.violated_at(now)
        if slo_violated:
            if self._violated_ticks == 0:
                # A fresh violation starts a fresh attribution episode:
                # whatever the models were muttering beforehand (e.g. a
                # lingering false-alarm episode) must not contaminate
                # the new anomaly's metric ranking.
                for window in self._recent_strengths.values():
                    window.clear()
            self._violated_ticks += 1
        else:
            self._violated_ticks = 0

        if self.config.prediction_enabled:
            with self.obs.span(STAGE_PREDICT):
                self._predictive_path(now)
        if self._violated_ticks >= self.config.reactive_confirmations:
            with self.obs.span(STAGE_CLASSIFY):
                self._reactive_path(now)
        elif not slo_violated:
            self._reactive_abnormal.clear()
        self._resolve_validations(now, slo_violated)
        if self.obs.enabled:
            self._m_pending.set(self.validator.pending_count)
            self._m_models.set(
                sum(1 for p in self.predictors.values() if p.trained)
            )

    # ------------------------------------------------------------------
    # Degraded-input handling (chaos: NaN corruption, monitor blackouts)
    # ------------------------------------------------------------------
    def _ingest(self, block: SampleBlock, now: float) -> None:
        """Land one round in the training ring as one column.

        A clean round — every managed VM present with finite values —
        is one assignment per ring array.  Anything else goes through
        :meth:`_ingest_degraded`.
        """
        with self.obs.span(STAGE_INGEST) as span:
            if block.vms is not self._block_vms:
                self._block_vms = block.vms
                self._block_rows = None if block.vms == self._ring.vms else (
                    np.array([self._index.get(n, -1) for n in block.vms],
                             dtype=np.intp)
                )
            if (
                self._block_rows is None
                and block.present.all()
                and np.isfinite(block.values).all()
            ):
                self._last_real.fill(block.timestamp)
                self._ring.push(
                    block.timestamp, block.values, block.cpu, block.mem, False
                )
                count = len(block.vms)
            else:
                count = self._ingest_degraded(block, now)
            span.set("samples", count)
        self._m_samples.inc(count)

    def _ingest_degraded(self, block: SampleBlock, now: float) -> int:
        """Repair a degraded round so every VM's window stays aligned.

        NaN-corrupted attributes are replaced with the VM's last-known-
        good values; VMs missing from the round (monitor blackout) get
        their last-known-good row again, at the round's timestamp — or
        at delivery time when nothing arrived.  Repaired and repeated
        rows are flagged imputed: training excludes them, and the
        staleness bound (:attr:`PrepareConfig.imputation_max_staleness`)
        governs when prediction stops trusting the imputed stream.  A
        VM that has never delivered a sample cannot be imputed; it gets
        no row, its window lags, and :meth:`_retrain` leaves it out.
        Returns the samples ingested: the round's present rows plus the
        repeated ones.
        """
        ring = self._ring
        names = ring.vms
        rows = self._block_rows
        if rows is None:
            rows = np.arange(len(names))
        had_rows = ring.has_rows()
        values, cpu, mem = ring.latest()
        mine = block.present & (rows >= 0)
        idx = rows[mine]
        fresh = block.values[mine]
        finite = np.isfinite(fresh).all(axis=1)
        for j in np.flatnonzero(~finite).tolist():
            broken = ~np.isfinite(fresh[j])
            fresh[j, broken] = values[idx[j], broken]
            self.resilience_stats["imputed_samples"] += 1
            self._m_imputed.inc(vm=names[idx[j]])
        values[idx] = fresh
        cpu[idx] = block.cpu[mine]
        mem[idx] = block.mem[mine]
        self._last_real[idx[finite]] = block.timestamp
        missing = had_rows.copy()
        missing[idx] = False
        for i in np.flatnonzero(missing).tolist():
            self.resilience_stats["imputed_samples"] += 1
            self._m_imputed.inc(vm=names[i])
        imputed = missing.copy()
        imputed[idx] = ~finite
        had_rows[idx] = True
        timestamp = block.timestamp if block.present.any() else now
        ring.push(timestamp, values, cpu, mem, imputed, rows=had_rows)
        return int(block.present.sum()) + int(missing.sum())

    def _blacked_out(self, name: str, now: float) -> bool:
        # NaN (no real sample yet) compares False: never blacked out.
        last_real = self._last_real[self._index[name]]
        return now - last_real > self.config.imputation_max_staleness

    # ------------------------------------------------------------------
    # Post-operation alert suppression
    # ------------------------------------------------------------------
    def _refresh_suppressions(self, now: float) -> None:
        """Open a grace window on every VM a hypervisor op just touched."""
        ops = self.cluster.hypervisor.operations
        for op in ops[self._ops_seen:]:
            if op.outcome not in ("ok", "late"):
                # A rejected or lost verb changed no allocation: there
                # is nothing to re-equilibrate, so no grace window (and
                # suppressing here would blind validation to the very
                # alerts that prove the action never landed).
                continue
            if op.vm in self.filters:
                self._suppressed_until[op.vm] = max(
                    self._suppressed_until.get(op.vm, 0.0),
                    op.finished_at + self.config.post_action_grace,
                )
                self.filters[op.vm].reset()
                self.events.emit(
                    now, "suppressed", vm=op.vm,
                    until=self._suppressed_until[op.vm], cause=op.op,
                )
                self._m_suppressed.inc(vm=op.vm)
        self._ops_seen = len(ops)

    def _suppressed(self, vm_name: str, now: float) -> bool:
        return now < self._suppressed_until.get(vm_name, 0.0)

    # ------------------------------------------------------------------
    # Training
    # ------------------------------------------------------------------
    def _retrain(self) -> None:
        """Retrain per-VM models with localization-assigned labels.

        The application-level SLO labels are first passed through the
        fault localizer (Sec. II-B, standing in for PAL [13]) so only
        the VMs actually implicated in each violation epoch learn it
        as abnormal — the rest keep a normal label and therefore never
        alert for someone else's fault.
        """
        ring = self._ring
        lengths = ring.lengths()
        if not lengths.size or lengths.max() < self.config.min_training_samples:
            return
        # Imputation keeps windows aligned, but a VM blacked out since
        # before its first real sample has a shorter window — train the
        # aligned majority and leave the lagging VM out rather than
        # feeding the localizer misaligned label rows.
        ref_len = int(lengths.max())
        aligned = np.flatnonzero(lengths == ref_len)
        names = [ring.vms[i] for i in aligned]
        # Aligned windows are the same ring columns and share the time
        # vector, so the SLO labels resolve once and the localizer reads
        # one (vm, rows, attr) block — a view when no VM lags.
        _X, labels, _t = self.buffers[names[0]].matrices()
        if not labels.any() or labels.all():
            return
        vms = slice(None) if aligned.size == lengths.size else aligned
        window = slice(ring.end - ref_len, ring.end)
        block = ring.values[vms, window]
        per_vm_values = dict(zip(names, block))
        per_vm_labels = self.localizer.localize_block(
            names, block, labels,
            allocations=(ring.cpu[vms, window], ring.mem[vms, window]),
        )
        for name, y_vm in per_vm_labels.items():
            if not y_vm.any():
                if self.predictors[name].trained:
                    # Localization has withdrawn this VM's implication:
                    # retire the stale model rather than let it misfire.
                    self.predictors[name].invalidate()
                    self.events.emit(self._sim.now, "model_retired", vm=name)
                continue
            # Regime-aware training set.  Normal samples count only
            # under the VM's *current* allocation (normal profiles from
            # other regimes dilute the CPTs and cause chronic false
            # alarms after scale-backs).  Abnormal samples count only
            # under the allocation their violation epoch *began* with:
            # once a prevention action rescales the VM mid-epoch, the
            # remaining "violated" samples describe the already-fixed
            # state draining out (SLO smoothing, thrash decay) and
            # teaching the model that healthy-looking states are
            # abnormal poisons both detection and attribution.
            vm = self.cluster.vm(name)
            buffer = self.buffers[name]
            mask = buffer.regime_mask(vm.cpu_allocated, vm.mem_allocated_mb)
            mask &= y_vm == 0
            cpu_alloc, mem_alloc = buffer.allocations()
            for start, end in violation_epochs(y_vm):
                same_as_start = (
                    np.abs(cpu_alloc[start:end] - cpu_alloc[start])
                    <= 0.02 * max(cpu_alloc[start], 1e-9)
                ) & (
                    np.abs(mem_alloc[start:end] - mem_alloc[start])
                    <= 0.02 * max(mem_alloc[start], 1e-9)
                )
                mask[start:end] = same_as_start
            # Imputed rows are synthesized repeats, not measurements:
            # letting them into the CPTs teaches the model that frozen
            # metrics are a real regime.
            mask &= ~buffer.imputed_mask()
            rows = np.flatnonzero(mask)
            if rows.size < self.config.min_training_samples:
                continue
            y_sel = y_vm[rows]
            enough = int(y_sel.sum()) >= self.config.min_abnormal_samples
            if enough and not y_sel.all():
                # Contiguous runs of kept rows form the Markov segments.
                segment_ids = np.cumsum(np.diff(rows, prepend=rows[0]) > 1)
                values_sel = per_vm_values[name][rows]
                try:
                    self.predictors[name].train(
                        values_sel, y_sel, segment_ids=segment_ids
                    )
                except ValueError as exc:
                    # Pathologically fragmented training rows (every
                    # contiguous run shorter than the chain history)
                    # yield no transitions; keep the previous model.
                    self.events.emit(
                        self._sim.now, "model_train_failed", vm=name,
                        reason=str(exc),
                    )
                    continue
                self.events.emit(
                    self._sim.now, "model_trained", vm=name,
                    samples=int(rows.size), abnormal=int(y_sel.sum()),
                )
                self._m_retrains.inc()

    # ------------------------------------------------------------------
    # Predictive path
    # ------------------------------------------------------------------
    def _fleet_scorer(self) -> FleetScorer:
        """Shared :class:`FleetScorer` over the trained predictors.

        Between retrains every tick reuses the same stacked operators
        and horizon cache; the scorer itself repairs the rows of VMs
        refit in place (:meth:`FleetScorer.sync`).  Only a change of
        trained membership builds a new one; membership can change only
        when some model does, so it is re-read only after the refit
        counter moved.
        """
        count = refits.count()
        if count != self._scorer_refits:
            trained = {
                name: p for name, p in self.predictors.items() if p.trained
            }
            scorer = self._scorer
            if scorer is None or list(scorer.predictors) != list(trained):
                self._scorer = FleetScorer(trained)
            self._scorer_refits = count
        return self._scorer

    def _predictive_path(self, now: float) -> None:
        steps = self.lookahead_steps
        batch: List[Tuple[str, np.ndarray, int]] = []
        for name, predictor in self.predictors.items():
            if not predictor.trained:
                continue
            if self._blacked_out(name, now):
                # The VM's recent history is pure imputation: a
                # forecast from frozen inputs is noise.  Skip this
                # VM (the rest of the cluster keeps predicting)
                # until real samples resume.
                self.resilience_stats["blackout_skips"] += 1
                self._m_blackout_skips.inc(vm=name)
                continue
            history = self.buffers[name].recent_values(
                predictor.history_needed
            )
            if history.shape[0] < predictor.history_needed:
                continue
            batch.append((name, history, steps))
        if not batch:
            return
        confirmed: Dict[str, PredictionResult] = {}
        results = self._fleet_scorer().score(batch)
        for (name, _history, _steps), result in zip(batch, results):
            self._latest_results[name] = result
            self._note_strengths(name, result)
            if self._suppressed(name, now):
                continue
            raw_alert = result.score > self.config.alert_threshold
            if raw_alert:
                self.events.emit(
                    now, "raw_alert", vm=name, score=round(result.score, 3)
                )
                self._m_raw_alerts.inc(vm=name)
            if self.filters[name].push(raw_alert):
                self.events.emit(now, "alert_confirmed", vm=name)
                self._m_confirmed.inc(vm=name)
                confirmed[name] = result
        if confirmed:
            self._handle_confirmed_alert(now, confirmed, proactive=True)

    # ------------------------------------------------------------------
    # Reactive path ("if the anomaly predictor fails to raise advance
    # alert ... the prevention is performed reactively")
    # ------------------------------------------------------------------
    def _reactive_path(self, now: float) -> None:
        # A violation is the labelled data the supervised model needs:
        # make sure models reflect it before diagnosing.
        if not self.trained():
            with self.obs.span(STAGE_RETRAIN):
                self._retrain()
        batch: List[Tuple[str, np.ndarray]] = []
        for name, predictor in self.predictors.items():
            if not predictor.trained:
                continue
            current = self.buffers[name].recent_values(1)
            if current.shape[0] == 0:
                continue
            batch.append((name, current[0]))
        results: Dict[str, PredictionResult] = {}
        if batch:
            classified = self._fleet_scorer().classify_batch(batch)
            for (name, _values), result in zip(batch, classified):
                results[name] = result
                self._reactive_abnormal[name] = result.abnormal
                self._latest_results[name] = result
                self._note_strengths(name, result)
        # VMs without a trained model cannot speak for themselves during
        # a violation (first occurrence of a fault, or localization has
        # reassigned their epochs).  Bootstrap those with a model-free
        # deviation diagnosis so the true culprit is never invisible
        # just because a *different* VM's model happens to alert.
        fallback = self._deviation_results(now)
        for name, result in fallback.items():
            if name not in results:
                results[name] = result
                self._reactive_abnormal[name] = result.abnormal
        if any(result.abnormal for result in results.values()):
            self._handle_confirmed_alert(now, results, proactive=False)

    def _deviation_results(self, now: float) -> Dict[str, PredictionResult]:
        """Model-free diagnosis: z-score deviations as pseudo-strengths.

        Compares each VM's recent samples against a reference window
        further back (same change-point view as the fault localizer)
        and fabricates :class:`PredictionResult` objects so the normal
        diagnosis/actuation machinery applies unchanged.
        """
        epoch_len, gap, ref_len = 4, 4, 12
        needed = epoch_len + gap + ref_len
        ring = self._ring
        # A VM that joined late (or lost samples) cannot be diagnosed
        # yet — but it must not disable the fallback for the whole
        # cluster: skip it, diagnose the rest.
        ready = np.flatnonzero(ring.lengths() >= needed)
        if not ready.size:
            return {}
        names = [ring.vms[i] for i in ready]
        # One (n_vms, window, attrs) block; each VM's reduction keeps
        # its own axis, so every z row is what that VM's window alone
        # would give.
        stacked = ring.values[ready, ring.end - needed:ring.end]
        reference = stacked[:, :ref_len, :]
        epoch = stacked[:, -epoch_len:, :]
        scale = np.maximum(
            np.maximum(reference.std(axis=1), epoch.std(axis=1)),
            1e-3 * np.maximum(np.abs(reference.mean(axis=1)), 1.0),
        )
        zs = np.abs(epoch.mean(axis=1) - reference.mean(axis=1)) / scale
        top = float(zs.max())
        if top < 2.0:
            return {}
        # Implication cut-off: within 60% of the most deviant VM, but
        # never above an absolute z of 6 — a throughput collapse makes
        # *downstream* VMs' network z-scores explode (tiny noise std),
        # and a purely relative cut would then exclude the actual
        # culprit whose own deviation is merely large.
        cutoff = max(2.0, min(0.6 * top, 6.0))
        results: Dict[str, PredictionResult] = {}
        for name, z in zip(names, zs):
            score = float(z.max())
            abnormal = score >= cutoff
            results[name] = PredictionResult(
                abnormal=abnormal,
                probability=1.0 - 1.0 / (1.0 + score),
                score=score,
                bins=tuple(0 for _ in self.attributes),
                strengths=tuple(float(v) for v in z),
                attributes=self.attributes,
                steps=0,
            )
        return results

    # ------------------------------------------------------------------
    # Diagnosis + actuation
    # ------------------------------------------------------------------
    def _handle_confirmed_alert(
        self,
        now: float,
        results: Dict[str, PredictionResult],
        proactive: bool,
    ) -> None:
        abnormal_vms = [n for n, r in results.items() if r.abnormal]
        if not abnormal_vms:
            return
        actionable = [
            name for name in abnormal_vms
            if now - self._last_action_at.get(name, -1e18)
            >= self.config.action_cooldown
            and not self._suppressed(name, now)
        ]
        if not actionable:
            return
        self.alerts.append(
            AlertRecord(timestamp=now, vms=tuple(sorted(abnormal_vms)),
                        proactive=proactive)
        )
        with self.obs.span(STAGE_DIAGNOSIS) as span:
            windows = {
                name: self.buffers[name].recent_values(12) for name in results
            }
            smoothed = {
                name: self._window_averaged(name, result)
                for name, result in results.items()
            }
            diagnosis = self.inference.diagnose(
                now, smoothed, recent_windows=windows
            )
            span.set("faulty", list(diagnosis.faulty_vms))
        self.diagnoses.append(diagnosis)
        self.events.emit(
            now, "diagnosis",
            faulty=list(diagnosis.faulty_vms),
            workload_change=diagnosis.workload_change,
            proactive=proactive,
        )
        if self.alarms is not None:
            # One alarm per VM + anomaly type (= the top-ranked metric
            # of the diagnosis); repeats across ticks deduplicate into
            # it.  Reactive alerts mean the SLO is already violated.
            for vm_name in diagnosis.faulty_vms:
                ranked = diagnosis.ranked_metrics.get(vm_name, ())
                kind = f"anomaly:{ranked[0] if ranked else 'unknown'}"
                self._alarm_kinds[vm_name] = kind
                self.alarms.raise_alarm(
                    vm_name, kind,
                    severity="warning" if proactive else "critical",
                    message=f"anomaly predicted for {vm_name}"
                    if proactive else f"SLO violation on {vm_name}",
                    now=now, proactive=proactive,
                )
        if not self.config.prevention_enabled:
            return
        # A workload change affects every component (Sec. II-C); only
        # the most saturated one needs more resources, so cap the
        # per-event fan-out at one VM and pick it by CPU saturation —
        # classifier scores rank anomaly *evidence*, which under an
        # app-wide load change does not identify the capacity
        # bottleneck.
        ordered = list(diagnosis.faulty_vms)
        limit = self.config.max_vms_per_event
        if diagnosis.workload_change:
            limit = 1
            ordered.sort(key=lambda name: -self._current_cpu_usage(name))
        acted = 0
        with self.obs.span(STAGE_ACTUATE) as span:
            for vm_name in ordered:
                if vm_name not in actionable:
                    continue
                if acted >= limit:
                    break
                ranking = diagnosis.ranked_metrics.get(vm_name, ())
                action = self.actuator.prevent(
                    vm_name, ranking, proactive=proactive
                )
                if action is None:
                    continue
                acted += 1
                self._last_action_at[vm_name] = now
                self._watch_action(action, now)
                self.events.emit(
                    now, "action", vm=vm_name, verb=action.verb,
                    resource=str(action.resource), metric=action.metric,
                    proactive=action.proactive,
                )
                self._m_actions.inc(
                    verb=action.verb,
                    trigger="predicted" if action.proactive else "reactive",
                )
            span.set("actions", acted)

    def _current_cpu_usage(self, name: str) -> float:
        """Latest cpu_usage reading for a VM (0 when unavailable)."""
        column = self._metric_column(name, "cpu_usage", count=2)
        return float(column[-1]) if column.size else 0.0

    def _note_strengths(self, name: str, result: PredictionResult) -> None:
        """Track the current alert episode's strength vectors."""
        window = self._recent_strengths[name]
        if result.abnormal:
            window.append((max(result.score, 0.1), result.strengths))
        else:
            window.clear()

    def _window_averaged(
        self, name: str, result: PredictionResult
    ) -> PredictionResult:
        """Replace a result's strengths with the episode's weighted mean.

        Metric attribution from a single sample is noisy — a chance
        co-occurrence can out-rank the genuinely implicated metric.
        Averaging the Eq. (2) strengths over the alert episode (score-
        weighted, so confident samples dominate) washes that out.
        """
        window = self._recent_strengths.get(name)
        if not window or len(window) < 2:
            return result
        weights = np.array([w for w, _s in window])
        matrix = np.array([s for _w, s in window])
        mean = tuple(float(v) for v in (weights @ matrix) / weights.sum())
        return dataclasses.replace(result, strengths=mean)

    def _watch_action(self, action: PreventionAction, now: float) -> None:
        column = self._metric_column(action.vm, action.metric)
        self.validator.watch(action, column, now)

    def _metric_column(self, vm_name: str, metric: str, count: int = 12) -> np.ndarray:
        buffer = self.buffers[vm_name]
        values = buffer.recent_values(count)
        if values.size == 0 or metric not in self.attributes:
            return np.empty(0)
        return values[:, self.attributes.index(metric)]

    # ------------------------------------------------------------------
    # Effectiveness validation + escalation
    # ------------------------------------------------------------------
    def _resolve_validations(self, now: float, slo_violated: bool) -> None:
        if self.validator.pending_count == 0:
            return
        alerts_active = {
            name: not self._suppressed(name, now)
            and (
                self.filters[name].confirmed
                or (slo_violated and self._reactive_abnormal.get(name, False))
            )
            for name in self.buffers
        }
        # Look-ahead windows are keyed by action_id, not VM: two
        # in-flight actions for the same VM (cooldown 30 s < settle
        # 45 s, or an escalation retry) indict different metrics, and a
        # VM-keyed map would validate the earlier action against the
        # later action's metric column.
        with self.obs.span(STAGE_VALIDATE) as span:
            resolved = self.validator.check(
                now,
                {
                    action.action_id: self._metric_column(
                        action.vm, action.metric
                    )
                    for action in self.actuator.actions
                    if action.effective is None
                },
                alerts_active,
            )
            span.set("resolved", len(resolved))
        for action, outcome in resolved:
            self.events.emit(
                now, "validation", vm=action.vm, outcome=outcome,
                metric=action.metric, usage_changed=action.usage_changed,
            )
            self._m_validations.inc(outcome=outcome)
            if outcome == ValidationOutcome.EFFECTIVE:
                self.actuator.mark_effective(action)
                self.filters[action.vm].reset()
                if self.alarms is not None:
                    kind = self._alarm_kinds.pop(action.vm, None)
                    if kind is not None:
                        self.alarms.resolve_key(
                            action.vm, kind, now=now,
                            reason="prevention action effective")
            else:
                # INEFFECTIVE and FAILED both escalate: a failed action
                # (every retry exhausted) leaves the anomaly unhandled,
                # so the alarm's severity must go up, not reset.
                self.actuator.mark_ineffective(action)
                if self.alarms is not None:
                    kind = self._alarm_kinds.get(action.vm)
                    if kind is not None:
                        self.alarms.escalate_key(
                            action.vm, kind, now=now,
                            reason=f"prevention action {outcome}")
                self._escalate(action, now)

    def _escalate(self, action: PreventionAction, now: float) -> None:
        """Try the next-ranked metric after an ineffective action."""
        latest = self._latest_results.get(action.vm)
        if latest is None or not self.config.prevention_enabled:
            return
        ranking = latest.ranked_attributes()
        retry = self.actuator.prevent(
            action.vm, ranking, proactive=action.proactive
        )
        if retry is not None:
            self._last_action_at[action.vm] = now
            self._watch_action(retry, now)
