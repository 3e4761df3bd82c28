"""forecastlab: train, compare, and explain forecasting models on monthly panels."""

from .arima import ArimaOrder, difference, fit_css, forecast, select_order
from .dataset import (
    ColumnSchema,
    SeriesFrame,
    SynthSpec,
    chrono_split,
    default_schema,
    load_frame,
    log_transform,
    synth_generate,
)
from .evaluation import dm_test, mae, rmse, rmse_reduction
from .linear import LinearModel, PenaltySpec, fit_linear
from .shapley import BackgroundSet, exact_shapley, explain_matrix, global_importance, tree_shap
from .svr import KernelSpec, SvrModel, fit_svr
from .trees import (
    BoostedModel,
    BoostParams,
    ForestModel,
    ForestParams,
    Tree,
    fit_gradient_boosting,
    fit_random_forest,
    fit_regression_tree,
    model_from_json,
    model_to_json,
    predict_tree,
)
from .tuning import CvPlan, ParamGrid, grid_search, kfold_indices

__version__ = "0.1.0"
