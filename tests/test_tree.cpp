// Tests for the CART trees (xai/tree).
#include "xai/tree.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <functional>
#include <limits>
#include <numeric>
#include <stdexcept>

#include "common/contracts.hpp"
#include "common/format.hpp"
#include "common/rng.hpp"

namespace explora::xai {
namespace {

/// Axis-separable two-class dataset: class = x0 > threshold.
Dataset separable_dataset(std::size_t n, double threshold,
                          std::uint64_t seed) {
  common::Rng rng(seed);
  Dataset data;
  for (std::size_t i = 0; i < n; ++i) {
    Vector x{rng.uniform(0.0, 1.0), rng.uniform(0.0, 1.0)};
    data.labels.push_back(x[0] > threshold ? 1u : 0u);
    data.features.push_back(std::move(x));
  }
  return data;
}

/// 2D XOR dataset (requires depth >= 2).
Dataset xor_dataset(std::size_t n, std::uint64_t seed) {
  common::Rng rng(seed);
  Dataset data;
  for (std::size_t i = 0; i < n; ++i) {
    Vector x{rng.uniform(0.0, 1.0), rng.uniform(0.0, 1.0)};
    data.labels.push_back((x[0] > 0.5) != (x[1] > 0.5) ? 1u : 0u);
    data.features.push_back(std::move(x));
  }
  return data;
}

TEST(DecisionTree, PerfectOnAxisSeparableData) {
  const Dataset data = separable_dataset(200, 0.4, 1);
  DecisionTreeClassifier tree;
  tree.fit(data, 2);
  EXPECT_DOUBLE_EQ(tree.accuracy(data), 1.0);
}

TEST(DecisionTree, SolvesXorWithDepthThree) {
  // Greedy CART has (near-)zero gain at the XOR root, so the first split
  // lands at an arbitrary position; one extra level recovers the corners.
  const Dataset data = xor_dataset(400, 3);
  DecisionTreeClassifier::Config config;
  config.max_depth = 3;
  config.min_samples_leaf = 1;
  DecisionTreeClassifier tree(config);
  tree.fit(data, 2);
  EXPECT_GT(tree.accuracy(data), 0.9);
}

TEST(DecisionTree, DepthOneCannotSolveXor) {
  const Dataset data = xor_dataset(400, 5);
  DecisionTreeClassifier::Config config;
  config.max_depth = 1;
  DecisionTreeClassifier tree(config);
  tree.fit(data, 2);
  EXPECT_LT(tree.accuracy(data), 0.7);
  EXPECT_LE(tree.depth(), 2u);  // root + leaves
}

TEST(DecisionTree, RespectsMinSamplesLeaf) {
  const Dataset data = separable_dataset(40, 0.5, 7);
  DecisionTreeClassifier::Config config;
  config.min_samples_leaf = 25;  // no split can satisfy this
  DecisionTreeClassifier tree(config);
  tree.fit(data, 2);
  EXPECT_EQ(tree.node_count(), 1u);  // a single leaf
}

TEST(DecisionTree, PredictProbaSumsToOne) {
  const Dataset data = xor_dataset(100, 9);
  DecisionTreeClassifier tree;
  tree.fit(data, 2);
  const Vector probs = tree.predict_proba({0.3, 0.8});
  EXPECT_NEAR(probs[0] + probs[1], 1.0, 1e-12);
}

TEST(DecisionTree, FeatureImportancesIdentifyRelevantFeature) {
  const Dataset data = separable_dataset(300, 0.5, 11);
  DecisionTreeClassifier tree;
  tree.fit(data, 2);
  const Vector importances = tree.feature_importances();
  ASSERT_EQ(importances.size(), 2u);
  EXPECT_GT(importances[0], 0.9);  // x0 carries all the signal
  EXPECT_NEAR(importances[0] + importances[1], 1.0, 1e-9);
}

TEST(DecisionTree, RulesMentionFeatureAndClassNames) {
  const Dataset data = separable_dataset(200, 0.5, 13);
  DecisionTreeClassifier tree;
  tree.fit(data, 2);
  const std::string rules = tree.to_rules({"alpha", "beta"}, {"low", "high"});
  EXPECT_NE(rules.find("alpha"), std::string::npos);
  EXPECT_NE(rules.find("low"), std::string::npos);
  EXPECT_NE(rules.find("high"), std::string::npos);
}

TEST(DecisionTree, DecisionPathsCoverAllLeaves) {
  const Dataset data = xor_dataset(400, 15);
  DecisionTreeClassifier::Config config;
  config.max_depth = 2;
  config.min_samples_leaf = 1;
  DecisionTreeClassifier tree(config);
  tree.fit(data, 2);
  const auto paths = tree.decision_paths({"x0", "x1"}, {"zero", "one"});
  EXPECT_GE(paths.size(), 3u);
  for (const auto& path : paths) {
    EXPECT_NE(path.find("->"), std::string::npos);
  }
}

TEST(DecisionTree, EntropyCriterionAlsoWorks) {
  const Dataset data = separable_dataset(200, 0.5, 17);
  DecisionTreeClassifier::Config config;
  config.criterion = DecisionTreeClassifier::Criterion::kEntropy;
  DecisionTreeClassifier tree(config);
  tree.fit(data, 2);
  EXPECT_DOUBLE_EQ(tree.accuracy(data), 1.0);
}

TEST(DecisionTree, MulticlassLabels) {
  common::Rng rng(19);
  Dataset data;
  for (int i = 0; i < 300; ++i) {
    Vector x{rng.uniform(0.0, 3.0)};
    data.labels.push_back(static_cast<std::size_t>(x[0]));  // 0, 1, 2
    data.features.push_back(std::move(x));
  }
  DecisionTreeClassifier tree;
  tree.fit(data, 3);
  EXPECT_GT(tree.accuracy(data), 0.98);
  EXPECT_EQ(tree.num_classes(), 3u);
}

TEST(RegressionTree, FitsStepFunction) {
  std::vector<Vector> features;
  Vector targets;
  for (int i = 0; i < 100; ++i) {
    const double x = static_cast<double>(i) / 100.0;
    features.push_back({x});
    targets.push_back(x < 0.5 ? -1.0 : 1.0);
  }
  RegressionTree tree;
  tree.fit(features, targets);
  EXPECT_NEAR(tree.predict({0.2}), -1.0, 1e-9);
  EXPECT_NEAR(tree.predict({0.9}), 1.0, 1e-9);
}

TEST(RegressionTree, ConstantTargetsYieldSingleLeaf) {
  std::vector<Vector> features{{0.0}, {1.0}, {2.0}};
  Vector targets{5.0, 5.0, 5.0};
  RegressionTree tree;
  tree.fit(features, targets);
  EXPECT_EQ(tree.node_count(), 1u);
  EXPECT_DOUBLE_EQ(tree.predict({7.0}), 5.0);
}

TEST(RegressionTree, DepthLimitCapsPiecewiseResolution) {
  std::vector<Vector> features;
  Vector targets;
  for (int i = 0; i < 64; ++i) {
    features.push_back({static_cast<double>(i)});
    targets.push_back(static_cast<double>(i));
  }
  RegressionTree::Config config;
  config.max_depth = 2;  // at most 4 leaves
  RegressionTree tree(config);
  tree.fit(features, targets);
  EXPECT_LE(tree.node_count(), 7u);
}

// Property sweep: deeper trees never fit the training data worse.
class TreeDepthSweep : public ::testing::TestWithParam<std::size_t> {};

TEST_P(TreeDepthSweep, TrainingAccuracyMonotoneInDepth) {
  const Dataset data = xor_dataset(500, 21);
  DecisionTreeClassifier::Config shallow_config;
  shallow_config.max_depth = GetParam();
  shallow_config.min_samples_leaf = 1;
  DecisionTreeClassifier shallow(shallow_config);
  shallow.fit(data, 2);

  DecisionTreeClassifier::Config deeper_config = shallow_config;
  deeper_config.max_depth = GetParam() + 1;
  DecisionTreeClassifier deeper(deeper_config);
  deeper.fit(data, 2);

  EXPECT_GE(deeper.accuracy(data) + 1e-12, shallow.accuracy(data));
}

INSTANTIATE_TEST_SUITE_P(Depths, TreeDepthSweep,
                         ::testing::Values(1u, 2u, 3u, 4u, 5u));

// ---- contracts -------------------------------------------------------------

struct ContractError : std::runtime_error {
  using std::runtime_error::runtime_error;
};

[[noreturn]] void throwing_handler(const contracts::ContractViolation& v) {
  throw ContractError(v.message);
}

TEST(DecisionTree, FitRejectsNonFiniteFeatures) {
  contracts::ScopedContractHandler guard(&throwing_handler);
  Dataset data = separable_dataset(20, 0.5, 23);
  data.features[7][1] = std::numeric_limits<double>::quiet_NaN();
  DecisionTreeClassifier tree;
  EXPECT_THROW(tree.fit(data, 2), ContractError);
}

TEST(RegressionTree, FitRejectsNonFiniteFeatures) {
  contracts::ScopedContractHandler guard(&throwing_handler);
  std::vector<Vector> features{{0.0}, {1.0}, {2.0}, {3.0}};
  const Vector targets{0.0, 1.0, 2.0, 3.0};
  features[2][0] = std::numeric_limits<double>::quiet_NaN();
  RegressionTree tree;
  EXPECT_THROW(tree.fit(features, targets), ContractError);
  features[2][0] = std::numeric_limits<double>::infinity();
  EXPECT_THROW(tree.fit(features, targets), ContractError);
}

// ---- differential test: presorted split search vs per-node-sort CART ------
//
// The reference below is the CART both trees used before the presorted split
// search: every node copies its rows (ascending row index), re-sorts them
// per feature and scans. `TieOrder` picks how rows with equal values are
// ordered by that sort.

enum class TieOrder {
  kIntrosort,      ///< std::sort, each feature from the previous order
  kRowAscending,   ///< stable sort: ties by ascending row index
  kRowDescending,  ///< stable sort: ties by descending row index
};

void sort_by_feature(std::vector<std::size_t>& sorted,
                     const std::vector<std::size_t>& rows,
                     const std::vector<Vector>& features, std::size_t f,
                     TieOrder ties) {
  const auto less = [&](std::size_t a, std::size_t b) {
    return features[a][f] < features[b][f];
  };
  if (ties == TieOrder::kIntrosort) {
    std::sort(sorted.begin(), sorted.end(), less);
    return;
  }
  sorted = rows;
  if (ties == TieOrder::kRowDescending) {
    std::reverse(sorted.begin(), sorted.end());
  }
  std::stable_sort(sorted.begin(), sorted.end(), less);
}

/// Per-node-sort recursion; `Score` holds the impurity arithmetic of one
/// node at a time.
template <typename Score>
struct ReferenceCart {
  const std::vector<Vector>& features;
  std::size_t max_depth;
  std::size_t min_samples_leaf;
  double min_gain;
  TieOrder ties;
  Score score;
  std::vector<TreeNode> nodes;

  std::int32_t build(const std::vector<std::size_t>& rows,
                     std::size_t depth) {
    const double n = static_cast<double>(rows.size());
    const auto node_index = static_cast<std::int32_t>(nodes.size());
    nodes.emplace_back();
    const double node_impurity = score.open(rows, nodes.back());
    if (depth >= max_depth || rows.size() < 2 * min_samples_leaf ||
        node_impurity <= min_gain) {
      return node_index;
    }
    bool found = false;
    std::int32_t best_feature = -1;
    double best_threshold = 0.0;
    double best_gain = 0.0;
    std::vector<std::size_t> sorted = rows;
    for (std::size_t f = 0; f < features.front().size(); ++f) {
      sort_by_feature(sorted, rows, features, f, ties);
      score.clear_left();
      for (std::size_t i = 0; i + 1 < sorted.size(); ++i) {
        score.add_left(sorted[i]);
        const double x_now = features[sorted[i]][f];
        const double x_next = features[sorted[i + 1]][f];
        if (x_now == x_next) continue;
        const auto left_n = static_cast<double>(i + 1);
        const double right_n = n - left_n;
        if (left_n < static_cast<double>(min_samples_leaf) ||
            right_n < static_cast<double>(min_samples_leaf)) {
          continue;
        }
        const double gain = score.gain(n, left_n, right_n);
        if (gain > best_gain + min_gain) {
          found = true;
          best_feature = static_cast<std::int32_t>(f);
          best_threshold = (x_now + x_next) / 2.0;
          best_gain = gain;
        }
      }
    }
    if (!found) return node_index;
    score.record_split(static_cast<std::size_t>(best_feature), best_gain * n);
    std::vector<std::size_t> left_rows;
    std::vector<std::size_t> right_rows;
    for (std::size_t r : rows) {
      if (features[r][static_cast<std::size_t>(best_feature)] <=
          best_threshold) {
        left_rows.push_back(r);
      } else {
        right_rows.push_back(r);
      }
    }
    const std::int32_t left = build(left_rows, depth + 1);
    const std::int32_t right = build(right_rows, depth + 1);
    TreeNode& node = nodes[static_cast<std::size_t>(node_index)];
    node.feature = best_feature;
    node.threshold = best_threshold;
    node.left = left;
    node.right = right;
    return node_index;
  }

  void fit() {
    std::vector<std::size_t> rows(features.size());
    std::iota(rows.begin(), rows.end(), std::size_t{0});
    build(rows, 0);
  }
};

struct ReferenceClassScore {
  const std::vector<std::size_t>& labels;
  std::size_t num_classes;
  DecisionTreeClassifier::Criterion criterion;
  Vector importances;
  std::vector<double> counts;
  std::vector<double> left_counts;
  double node_impurity = 0.0;

  double impurity(const std::vector<double>& c, double total) const {
    if (total <= 0.0) return 0.0;
    double result = 0.0;
    if (criterion == DecisionTreeClassifier::Criterion::kGini) {
      double sum_sq = 0.0;
      for (double v : c) sum_sq += (v / total) * (v / total);
      result = 1.0 - sum_sq;
    } else {
      for (double v : c) {
        if (v > 0.0) {
          const double p = v / total;
          result -= p * std::log2(p);
        }
      }
    }
    return result;
  }
  double open(const std::vector<std::size_t>& rows, TreeNode& node) {
    counts.assign(num_classes, 0.0);
    for (std::size_t r : rows) counts[labels[r]] += 1.0;
    node.class_counts = counts;
    node.value = static_cast<double>(static_cast<std::size_t>(std::distance(
        counts.begin(), std::max_element(counts.begin(), counts.end()))));
    node_impurity = impurity(counts, static_cast<double>(rows.size()));
    return node_impurity;
  }
  void clear_left() { left_counts.assign(num_classes, 0.0); }
  void add_left(std::size_t r) { left_counts[labels[r]] += 1.0; }
  double gain(double n, double left_n, double right_n) const {
    std::vector<double> right_counts(num_classes, 0.0);
    for (std::size_t c = 0; c < num_classes; ++c) {
      right_counts[c] = counts[c] - left_counts[c];
    }
    return node_impurity - (left_n / n) * impurity(left_counts, left_n) -
           (right_n / n) * impurity(right_counts, right_n);
  }
  void record_split(std::size_t feature, double weighted_gain) {
    importances[feature] += weighted_gain;
  }
};

struct ReferenceSquaredError {
  const Vector& targets;
  double sum = 0.0;
  double sum_sq = 0.0;
  double sse = 0.0;
  double left_sum = 0.0;
  double left_sq = 0.0;

  double open(const std::vector<std::size_t>& rows, TreeNode& node) {
    sum = 0.0;
    sum_sq = 0.0;
    for (std::size_t r : rows) {
      sum += targets[r];
      sum_sq += targets[r] * targets[r];
    }
    const double n = static_cast<double>(rows.size());
    node.value = sum / n;
    sse = sum_sq - sum * sum / n;
    return sse;
  }
  void clear_left() {
    left_sum = 0.0;
    left_sq = 0.0;
  }
  void add_left(std::size_t r) {
    left_sum += targets[r];
    left_sq += targets[r] * targets[r];
  }
  double gain(double /*n*/, double left_n, double right_n) const {
    const double right_sum = sum - left_sum;
    const double right_sq = sum_sq - left_sq;
    const double left_sse = left_sq - left_sum * left_sum / left_n;
    const double right_sse = right_sq - right_sum * right_sum / right_n;
    return sse - left_sse - right_sse;
  }
  void record_split(std::size_t /*feature*/, double /*weighted_gain*/) {}
};


/// Reference surrogate attribution over the reference nodes.
Vector reference_path_attribution(const std::vector<TreeNode>& nodes,
                                  const Vector& importances, const Vector& x) {
  Vector attribution(importances.size(), 0.0);
  const TreeNode* node = &nodes.front();
  double total = 0.0;
  while (node->feature >= 0) {
    const auto f = static_cast<std::size_t>(node->feature);
    const bool unseen =
        attribution[f] == 0.0;  // det-ok: float-eq (sentinel we wrote)
    if (unseen && importances[f] > 0.0) {
      attribution[f] = importances[f];
      total += importances[f];
    }
    node = x[f] <= node->threshold
               ? &nodes[static_cast<std::size_t>(node->left)]
               : &nodes[static_cast<std::size_t>(node->right)];
  }
  if (total > 0.0) {
    for (double& a : attribution) a /= total;
  }
  return attribution;
}

/// Reference rules text in DecisionTreeClassifier::to_rules's format.
std::string reference_rules(const std::vector<TreeNode>& nodes,
                            const std::vector<std::string>& feature_names,
                            const std::vector<std::string>& class_names) {
  std::string out;
  std::function<void(std::int32_t, std::size_t)> render =
      [&](std::int32_t index, std::size_t indent) {
        const TreeNode& node = nodes[static_cast<std::size_t>(index)];
        const std::string pad(indent * 2, ' ');
        if (node.feature < 0) {
          const double total = std::accumulate(node.class_counts.begin(),
                                               node.class_counts.end(), 0.0);
          const auto cls = static_cast<std::size_t>(node.value);
          out += common::format("{}-> {} ({} samples, {:.0f}% purity)\n", pad,
                                class_names[cls], total,
                                total > 0.0
                                    ? node.class_counts[cls] / total * 100.0
                                    : 0.0);
          return;
        }
        const std::string& name =
            feature_names[static_cast<std::size_t>(node.feature)];
        out += common::format("{}if {} <= {:.4f}:\n", pad, name,
                              node.threshold);
        render(node.left, indent + 1);
        out += common::format("{}else:  # {} > {:.4f}\n", pad, name,
                              node.threshold);
        render(node.right, indent + 1);
      };
  render(0, 0);
  return out;
}

std::uint64_t bits(double x) { return std::bit_cast<std::uint64_t>(x); }

void expect_same_nodes(const std::vector<TreeNode>& actual,
                       const std::vector<TreeNode>& expected) {
  ASSERT_EQ(actual.size(), expected.size());
  for (std::size_t i = 0; i < actual.size(); ++i) {
    SCOPED_TRACE(common::format("node {}", i));
    EXPECT_EQ(actual[i].feature, expected[i].feature);
    EXPECT_EQ(bits(actual[i].threshold), bits(expected[i].threshold));
    EXPECT_EQ(actual[i].left, expected[i].left);
    EXPECT_EQ(actual[i].right, expected[i].right);
    EXPECT_EQ(bits(actual[i].value), bits(expected[i].value));
    ASSERT_EQ(actual[i].class_counts.size(), expected[i].class_counts.size());
    for (std::size_t c = 0; c < actual[i].class_counts.size(); ++c) {
      EXPECT_EQ(bits(actual[i].class_counts[c]),
                bits(expected[i].class_counts[c]));
    }
  }
}

void expect_same_bits(const Vector& actual, const Vector& expected) {
  ASSERT_EQ(actual.size(), expected.size());
  for (std::size_t i = 0; i < actual.size(); ++i) {
    EXPECT_EQ(bits(actual[i]), bits(expected[i])) << "entry " << i;
  }
}

/// One feature row drawn from per-column kinds: 0 Gaussian, 1 quantised to
/// `levels[f]` values (level 0 is +0.0 or -0.0 at random, so signed zeros
/// tie), 2 constant.
Vector draw_row(common::Rng& rng, const std::vector<std::size_t>& kinds,
                const std::vector<std::size_t>& levels) {
  Vector x(kinds.size());
  for (std::size_t f = 0; f < kinds.size(); ++f) {
    if (kinds[f] == 0) {
      x[f] = rng.normal(0.0, 1.0);
    } else if (kinds[f] == 1) {
      const std::size_t level = rng.index(levels[f]);
      x[f] = level == 0 ? (rng.index(2) == 0 ? 0.0 : -0.0)
                        : 0.25 * static_cast<double>(level);
    } else {
      x[f] = 1.5;
    }
  }
  return x;
}

/// Labels are the argmax of random linear class scores plus noise.
std::size_t draw_label(common::Rng& rng, const std::vector<Vector>& weights,
                       const Vector& x) {
  std::size_t best = 0;
  double best_score = -std::numeric_limits<double>::infinity();
  for (std::size_t c = 0; c < weights.size(); ++c) {
    double score = rng.normal(0.0, 0.5);
    for (std::size_t f = 0; f < x.size(); ++f) score += weights[c][f] * x[f];
    if (score > best_score) {
      best_score = score;
      best = c;
    }
  }
  return best;
}

TEST(TreeDifferential, ClassifierMatchesPerNodeSortReferenceBitForBit) {
  common::Rng rng(31);
  std::size_t splits = 0;
  for (std::size_t trial = 0; trial < 140; ++trial) {
    DecisionTreeClassifier::Config config;
    config.max_depth = 1 + trial % 10;
    config.min_samples_leaf = 1 + trial % 7;
    config.criterion = (trial / 10) % 2 == 0
                           ? DecisionTreeClassifier::Criterion::kGini
                           : DecisionTreeClassifier::Criterion::kEntropy;
    // Without a gain margin equal gains compete, which pins the strict
    // "later candidate wins only by more" rule.
    if (trial % 4 == 3) config.min_gain = 0.0;
    const std::size_t num_classes = 2 + trial % 5;
    const std::size_t num_features = 2 + rng.index(5);
    const std::size_t n = 20 + rng.index(280);
    SCOPED_TRACE(common::format(
        "trial {}: depth {} leaf {} gain {} entropy {} classes {} features {} "
        "rows {}",
        trial, config.max_depth, config.min_samples_leaf, config.min_gain,
        config.criterion == DecisionTreeClassifier::Criterion::kEntropy,
        num_classes, num_features, n));

    std::vector<std::size_t> kinds(num_features);
    std::vector<std::size_t> levels(num_features);
    for (std::size_t f = 0; f < num_features; ++f) {
      kinds[f] = rng.index(3);
      levels[f] = 2 + rng.index(4);
    }
    kinds[trial % num_features] = 1;  // always some heavy ties
    if (trial % 3 == 0) kinds[(trial + 1) % num_features] = 2;  // constant
    std::vector<Vector> weights(num_classes, Vector(num_features));
    for (auto& w : weights) {
      for (double& v : w) v = rng.normal(0.0, 1.0);
    }
    Dataset data;
    for (std::size_t i = 0; i < n; ++i) {
      data.features.push_back(draw_row(rng, kinds, levels));
      data.labels.push_back(draw_label(rng, weights, data.features.back()));
    }

    DecisionTreeClassifier tree(config);
    tree.fit(data, num_classes);

    ReferenceCart<ReferenceClassScore> ref{
        data.features, config.max_depth, config.min_samples_leaf,
        config.min_gain, TieOrder::kIntrosort,
        ReferenceClassScore{data.labels, num_classes, config.criterion,
                            Vector(num_features, 0.0), {}, {}, 0.0},
        {}};
    ref.fit();
    Vector& importances = ref.score.importances;
    const double total =
        std::accumulate(importances.begin(), importances.end(), 0.0);
    if (total > 0.0) {
      for (double& imp : importances) imp /= total;
    }

    expect_same_nodes(tree.nodes(), ref.nodes);
    expect_same_bits(tree.feature_importances(), importances);
    for (int held_out = 0; held_out < 16; ++held_out) {
      const Vector x = draw_row(rng, kinds, levels);
      expect_same_bits(tree.path_attribution(x),
                       reference_path_attribution(ref.nodes, importances, x));
    }
    std::vector<std::string> feature_names;
    for (std::size_t f = 0; f < num_features; ++f) {
      feature_names.push_back(common::format("x{}", f));
    }
    std::vector<std::string> class_names;
    for (std::size_t c = 0; c < num_classes; ++c) {
      class_names.push_back(common::format("c{}", c));
    }
    EXPECT_EQ(tree.to_rules(feature_names, class_names),
              reference_rules(ref.nodes, feature_names, class_names));
    splits += (tree.node_count() - 1) / 2;
  }
  EXPECT_GT(splits, 1000u);  // the sweep grows real trees, not stumps
}

/// Fits the reference regression tree with the given tie order.
std::vector<TreeNode> reference_regression(
    const std::vector<Vector>& features, const Vector& targets,
    const RegressionTree::Config& config, TieOrder ties) {
  ReferenceCart<ReferenceSquaredError> ref{
      features,         config.max_depth, config.min_samples_leaf,
      config.min_gain,  ties,             ReferenceSquaredError{targets},
      {}};
  ref.fit();
  return ref.nodes;
}

TEST(TreeDifferential, RegressionMatchesPerNodeSortReferenceOnTieFreeData) {
  common::Rng rng(37);
  for (std::size_t trial = 0; trial < 70; ++trial) {
    RegressionTree::Config config;
    config.max_depth = 1 + trial % 10;
    config.min_samples_leaf = 1 + trial % 7;
    if (trial % 4 == 3) config.min_gain = 0.0;
    const std::size_t num_features = 1 + rng.index(5);
    const std::size_t n = 20 + rng.index(280);
    SCOPED_TRACE(common::format("trial {}: depth {} leaf {} features {}",
                                trial, config.max_depth,
                                config.min_samples_leaf, num_features));
    std::vector<Vector> features;
    Vector targets;
    for (std::size_t i = 0; i < n; ++i) {
      const double first = rng.normal(0.0, 1.0);
      double last = first;
      Vector x{first};
      for (std::size_t f = 1; f < num_features; ++f) {
        last = rng.normal(0.0, 1.0);
        x.push_back(last);
      }
      targets.push_back(std::sin(3.0 * first) + last * first +
                        rng.normal(0.0, 0.1));
      features.push_back(std::move(x));
    }
    RegressionTree tree(config);
    tree.fit(features, targets);
    expect_same_nodes(tree.nodes(),
                      reference_regression(features, targets, config,
                                           TieOrder::kIntrosort));
  }
}

// With tied feature values the left sums accumulate in the order tied rows
// are scanned, and floating-point addition is not associative. The
// presorted search scans ties by ascending row index: it must match the
// stable-sort reference with that order on every dataset, while the
// opposite order must grow a different tree on many of them (so the sweep
// really is sensitive to the tie rule). Column 1 mirrors column 0, so each
// of column 0's candidates has a twin of exactly equal gain and rounding
// alone picks the winner.
TEST(TreeDifferential, RegressionScansTiedRowsInRowOrder) {
  common::Rng rng(41);
  std::size_t order_sensitive = 0;
  for (std::size_t trial = 0; trial < 60; ++trial) {
    RegressionTree::Config config;
    config.max_depth = 2 + trial % 5;
    config.min_samples_leaf = 1 + trial % 3;
    const std::size_t n = 40 + rng.index(120);
    std::vector<Vector> features;
    Vector targets;
    for (std::size_t i = 0; i < n; ++i) {
      const auto level = static_cast<double>(rng.index(4));
      features.push_back(
          {level, 3.0 - level, static_cast<double>(rng.index(3))});
      // Magnitudes spanning 16 decades make every sum order-dependent.
      targets.push_back(rng.normal(0.0, 1.0) *
                        std::pow(10.0, static_cast<double>(rng.index(17))));
    }
    RegressionTree tree(config);
    tree.fit(features, targets);
    SCOPED_TRACE(common::format("trial {}", trial));
    expect_same_nodes(tree.nodes(),
                      reference_regression(features, targets, config,
                                           TieOrder::kRowAscending));
    const auto reversed = reference_regression(features, targets, config,
                                               TieOrder::kRowDescending);
    bool differs = reversed.size() != tree.nodes().size();
    for (std::size_t i = 0; !differs && i < reversed.size(); ++i) {
      differs = reversed[i].feature != tree.nodes()[i].feature ||
                bits(reversed[i].threshold) != bits(tree.nodes()[i].threshold);
    }
    order_sensitive += differs ? 1 : 0;
  }
  EXPECT_GE(order_sensitive, 10u);
}

}  // namespace
}  // namespace explora::xai
