/**
 * @file
 * The TenSet MLP baseline cost model.
 *
 * A multilayer perceptron over the Ansor-style hand-engineered features
 * (paper Sec. 2): the state-of-the-art offline baseline TLP is compared
 * against in Table 5 and the search experiments. Trained with the same
 * group-aware rank loss as TLP.
 */
#pragma once

#include "dataset/splits.h"
#include "models/tlp_model.h"
#include "nn/modules.h"

namespace tlp::model {

/** MLP hyper-parameters. */
struct MlpConfig
{
    int input = 164;     ///< Ansor feature width
    int hidden = 128;
    int layers = 2;      ///< hidden layers
};

/** The TenSet-style MLP. */
class TensetMlpNet : public nn::Module
{
  public:
    TensetMlpNet(MlpConfig config, Rng &rng);

    const MlpConfig &config() const { return config_; }

    /** x [N, input] -> scores [N]. */
    nn::Tensor forward(const nn::Tensor &x);

    std::vector<nn::Tensor> parameters() override;

  private:
    MlpConfig config_;
    std::vector<std::unique_ptr<nn::Linear>> layers_;
};

/** Train on a single-task LabeledSet through trainSupervised; returns
 *  last-epoch loss. */
double trainMlp(TensetMlpNet &net, const data::LabeledSet &set,
                const TrainOptions &options);

/** Predict scores for every row of @p set (via forwardRows). */
std::vector<double> predictMlp(TensetMlpNet &net,
                               const data::LabeledSet &set,
                               int batch_size = 512);

} // namespace tlp::model
