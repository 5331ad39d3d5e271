"""Detection and grading evaluation toolkit for multi-class prostate
lesion segmentation: loss/attention numerics with verified gradients,
voxel-to-lesion post-processing, FROC/kappa/Dice metrics, a point-based
grading protocol, and a deterministic synthetic cohort generator that
serves as an exact end-to-end oracle."""

from .cluster import (
    DEFAULT_CONNECTIVITY,
    MIN_LESION_VOLUME_MM3,
    LesionCluster,
    LesionMap,
    cs_lesion_maps,
    filter_by_volume,
    filter_by_zone,
    gs_lesion_maps,
    lesion_maps,
)
from .evaluation import (
    EvaluationConfig,
    EvaluationReport,
    PatientEval,
    PointAnnotation,
    evaluate_cohort,
    evaluate_points,
    read_points_csv,
    report_to_dict,
    run_full_evaluation,
    write_report_bundle,
)
from .grades import CS_GRADES, GRADE_ORDER, Grade, MISSED, parse_grade
from .matching import (
    DEFAULT_OVERLAP_FRAC,
    DetectionRecord,
    MatchResult,
    TpMatch,
    match_detections,
    point_in_cluster_grade,
)
from .metrics import (
    AggregatePoint,
    ConfusionMatrix,
    FrocCurve,
    FrocPoint,
    KappaResult,
    aggregate_folds,
    bootstrap_kappa,
    confusion_matrix,
    dice_coefficient,
    froc_by_grade,
    froc_curve,
    quadratic_weighted_kappa,
    sensitivity_at_fp,
    wilcoxon_one_sided,
)
from .netmath import (
    AttentionMap,
    ClassWeights,
    FeatureStack,
    LossSchedule,
    LossValue,
    attention_gate_backward,
    attention_gate_forward,
    branch_loss,
    branch_loss_gradient,
    global_loss,
    label_from_probs,
    resample_attention,
    weighted_ce_loss,
    weighted_dice_loss,
)
from .phantom import (
    PhantomConfig,
    PhantomLedger,
    degrade_prediction,
    generate_cohort,
    phantom_patient_evals,
    write_cohort,
)
from .volume import (
    ProbStack,
    Volume,
    VolumeFormatError,
    ZoneMask,
    preprocess,
    read_volume,
    write_volume,
)

__version__ = "0.1.0"
