"""Multi-study variable screening and selection for high-dimensional
linear regression."""

__version__ = "0.1.0"

from .errors import (BudgetExceededError, DegenerateColumnError, InputError,
                     ManifestError, MultiscreenError, NumericalError,
                     SelectionError, SingularDesignError)
from .group_select import (GroupLassoFit, OlsStudyFit, SelectionModel,
                           group_lasso_fit, lambda_max, ols_refit,
                           select_lambda, tsa_sis_group_lasso)
from .multi_pc import (MultiPcState, StopReason, multi_pc_run, partial_t,
                       residualize)
from .screening import (FeatureScreenRecord, MultiStudy, ScreeningConfig,
                        ScreeningResult, Step1Output, Study,
                        compute_correlation_matrix, compute_t_matrix,
                        default_top_d, min_sis_rank, one_step_sis,
                        step1_from_stats, step1_separate, step2_aggregate,
                        top_d_selection, tsa_sis, tsa_sis_from_stats)
from .simulate import (LevelGrid, MethodSpec, RepMetrics, ReplicationSummary,
                       RocCurve, RocGrid, RocPoint, SensitivityGrid, SimSetting,
                       even_spaced_active, evaluate, gen_instance, replicate)
from .stats_core import (TStat, chi2_cdf, chi2_quantile, normal_cdf,
                         normal_quantile, self_normalized_t,
                         theoretical_alpha1)
from .data_io import (StudyManifest, load_manifest, load_multistudy,
                      write_multistudy)
