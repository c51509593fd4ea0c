#include "xai/tree.hpp"

#include <algorithm>
#include <array>
#include <bit>
#include <cmath>
#include <limits>
#include <numeric>
#include <span>

#include "common/contracts.hpp"
#include "common/format.hpp"

namespace explora::xai {

namespace {

/// Best candidate split of one node: feature, midpoint threshold, gain.
struct SplitResult {
  bool found = false;
  std::int32_t feature = -1;
  double threshold = 0.0;
  double gain = 0.0;
};

/// Order-preserving unsigned image of a finite double: a < b exactly when
/// sort_key(a) < sort_key(b), and -0.0 maps to the key of +0.0 (the two
/// compare equal, so they must tie).
std::uint64_t sort_key(double x) {
  const auto bits = std::bit_cast<std::uint64_t>(x + 0.0);
  constexpr std::uint64_t kSign = std::uint64_t{1} << 63;
  return (bits & kSign) != 0 ? ~bits : bits | kSign;
}

/// The rows of one fit, presorted once. Features are copied column-major;
/// each feature keeps its rows ordered by value with ties by row index, and
/// one extra order keeps them by row index alone. A node owns the same
/// range [lo, hi) of every order; splitting it stably partitions each
/// order's range, so both children find their rows still sorted.
class PresortedRows {
 public:
  explicit PresortedRows(const std::vector<Vector>& features)
      : num_rows_(features.size()),
        num_features_(features.front().size()),
        columns_(num_rows_ * num_features_),
        order_((num_features_ + 1) * num_rows_),
        goes_left_(num_rows_),
        spill_(num_rows_) {
    EXPLORA_EXPECTS(num_rows_ <= std::numeric_limits<std::uint32_t>::max());
    for (std::size_t r = 0; r < num_rows_; ++r) {
      EXPLORA_EXPECTS(features[r].size() == num_features_);
      for (std::size_t f = 0; f < num_features_; ++f) {
        const double x = features[r][f];
        EXPLORA_EXPECTS_MSG(std::isfinite(x), "feature {} of row {} is {}",
                            f, r, x);
        columns_[f * num_rows_ + r] = x;
      }
    }
    // LSD radix sort on the keys, one byte per pass. Each pass is stable
    // and the rows start in index order, so ties end up by row index. A
    // pass is skipped when every key shares its byte.
    std::vector<std::uint64_t> keys(num_rows_);
    std::vector<std::uint64_t> keys_tmp(num_rows_);
    std::vector<std::uint32_t> rows_tmp(num_rows_);
    for (std::size_t f = 0; f <= num_features_; ++f) {
      std::uint32_t* rows = order_.data() + f * num_rows_;
      std::iota(rows, rows + num_rows_, std::uint32_t{0});
      if (f == num_features_) break;
      std::array<std::array<std::size_t, 256>, 8> histogram{};
      for (std::size_t r = 0; r < num_rows_; ++r) {
        keys[r] = sort_key(columns_[f * num_rows_ + r]);
        for (std::size_t b = 0; b < 8; ++b) {
          ++histogram[b][(keys[r] >> (8 * b)) & 0xFF];
        }
      }
      for (std::size_t b = 0; b < 8; ++b) {
        auto& offsets = histogram[b];
        if (offsets[(keys[0] >> (8 * b)) & 0xFF] == num_rows_) continue;
        std::exclusive_scan(offsets.begin(), offsets.end(), offsets.begin(),
                            std::size_t{0});
        for (std::size_t i = 0; i < num_rows_; ++i) {
          const std::size_t slot = offsets[(keys[i] >> (8 * b)) & 0xFF]++;
          keys_tmp[slot] = keys[i];
          rows_tmp[slot] = rows[i];
        }
        keys.swap(keys_tmp);
        std::copy(rows_tmp.begin(), rows_tmp.end(), rows);
      }
    }
  }

  /// The node's rows in ascending row index.
  [[nodiscard]] std::span<const std::uint32_t> rows(std::size_t lo,
                                                    std::size_t hi) const {
    return {order_.data() + num_features_ * num_rows_ + lo, hi - lo};
  }

  /// Scans every feature's sorted range for the split that maximizes the
  /// accumulator's gain. Only boundaries between distinct values are
  /// candidates; a later candidate wins only by more than min_gain.
  template <typename Accumulator, typename Config>
  [[nodiscard]] SplitResult best_split(std::size_t lo, std::size_t hi,
                                       Accumulator& acc,
                                       const Config& config) const {
    SplitResult best;
    const double n = static_cast<double>(hi - lo);
    const auto min_leaf = static_cast<double>(config.min_samples_leaf);
    for (std::size_t f = 0; f < num_features_; ++f) {
      const std::uint32_t* sorted = order_.data() + f * num_rows_ + lo;
      const double* column = columns_.data() + f * num_rows_;
      acc.clear_left();
      for (std::size_t i = 0; i + 1 < hi - lo; ++i) {
        acc.add_left(sorted[i]);
        const double x_now = column[sorted[i]];
        const double x_next = column[sorted[i + 1]];
        if (x_now == x_next) continue;
        const auto left_n = static_cast<double>(i + 1);
        const double right_n = n - left_n;
        if (left_n < min_leaf || right_n < min_leaf) continue;
        const double gain = acc.gain(left_n, right_n);
        if (gain > best.gain + config.min_gain) {
          best.found = true;
          best.feature = static_cast<std::int32_t>(f);
          best.threshold = (x_now + x_next) / 2.0;
          best.gain = gain;
        }
      }
    }
    return best;
  }

  /// Moves the rows with x[feature] <= threshold to the front of [lo, hi)
  /// in every order, keeping relative order; returns the boundary.
  std::size_t partition(std::size_t lo, std::size_t hi, std::size_t feature,
                        double threshold) {
    const double* column = columns_.data() + feature * num_rows_;
    std::size_t left = 0;
    for (const std::uint32_t r : rows(lo, hi)) {
      goes_left_[r] = column[r] <= threshold ? 1 : 0;
      left += goes_left_[r];
    }
    for (std::size_t f = 0; f <= num_features_; ++f) {
      std::uint32_t* order = order_.data() + f * num_rows_;
      std::size_t kept = lo;
      std::size_t spilled = 0;
      for (std::size_t i = lo; i < hi; ++i) {
        if (goes_left_[order[i]] != 0) {
          order[kept++] = order[i];
        } else {
          spill_[spilled++] = order[i];
        }
      }
      std::copy_n(spill_.begin(), spilled, order + kept);
    }
    return lo + left;
  }

 private:
  std::size_t num_rows_;
  std::size_t num_features_;
  std::vector<double> columns_;       ///< columns_[f * num_rows_ + row]
  std::vector<std::uint32_t> order_;  ///< num_features_ + 1 row orders
  std::vector<std::uint8_t> goes_left_;
  std::vector<std::uint32_t> spill_;
};

/// Grows the subtree over rows [lo, hi) depth-first, numbering nodes in
/// pre-order. `acc` scores the node and its candidate splits; `config`
/// holds the stopping rules both trees share.
template <typename Accumulator, typename Config>
std::int32_t grow(PresortedRows& presorted, Accumulator& acc,
                  const Config& config, std::vector<TreeNode>& nodes,
                  std::size_t lo, std::size_t hi, std::size_t depth) {
  const auto node_index = static_cast<std::int32_t>(nodes.size());
  nodes.emplace_back();
  const double node_impurity =
      acc.open(presorted.rows(lo, hi), nodes.back());
  if (depth >= config.max_depth || hi - lo < 2 * config.min_samples_leaf ||
      node_impurity <= config.min_gain) {
    return node_index;
  }
  const SplitResult best = presorted.best_split(lo, hi, acc, config);
  if (!best.found) return node_index;
  acc.record_split(static_cast<std::size_t>(best.feature), best.gain);

  const std::size_t mid = presorted.partition(
      lo, hi, static_cast<std::size_t>(best.feature), best.threshold);
  const std::int32_t left =
      grow(presorted, acc, config, nodes, lo, mid, depth + 1);
  const std::int32_t right =
      grow(presorted, acc, config, nodes, mid, hi, depth + 1);
  TreeNode& node = nodes[static_cast<std::size_t>(node_index)];
  node.feature = best.feature;
  node.threshold = best.threshold;
  node.left = left;
  node.right = right;
  return node_index;
}

/// Squared-error accumulator of the regression tree: sum and sum of squares.
class SquaredError {
 public:
  explicit SquaredError(const Vector& targets) : targets_(targets) {}

  double open(std::span<const std::uint32_t> rows, TreeNode& node) {
    const auto n = static_cast<double>(rows.size());
    sum_ = 0.0;
    sum_sq_ = 0.0;
    for (const std::uint32_t r : rows) {
      sum_ += targets_[r];
      sum_sq_ += targets_[r] * targets_[r];
    }
    node.value = sum_ / n;
    sse_ = sum_sq_ - sum_ * sum_ / n;
    return sse_;
  }
  void clear_left() {
    left_sum_ = 0.0;
    left_sq_ = 0.0;
  }
  void add_left(std::uint32_t r) {
    const double y = targets_[r];
    left_sum_ += y;
    left_sq_ += y * y;
  }
  [[nodiscard]] double gain(double left_n, double right_n) const {
    const double right_sum = sum_ - left_sum_;
    const double right_sq = sum_sq_ - left_sq_;
    const double left_sse = left_sq_ - left_sum_ * left_sum_ / left_n;
    const double right_sse = right_sq - right_sum * right_sum / right_n;
    return sse_ - left_sse - right_sse;
  }
  void record_split(std::size_t /*feature*/, double /*gain*/) {}

 private:
  const Vector& targets_;
  double sum_ = 0.0;
  double sum_sq_ = 0.0;
  double sse_ = 0.0;
  double left_sum_ = 0.0;
  double left_sq_ = 0.0;
};

double impurity(const std::vector<double>& counts, double total,
                DecisionTreeClassifier::Criterion criterion) {
  if (total <= 0.0) return 0.0;
  double result = 0.0;
  if (criterion == DecisionTreeClassifier::Criterion::kGini) {
    double sum_sq = 0.0;
    for (double c : counts) sum_sq += (c / total) * (c / total);
    result = 1.0 - sum_sq;
  } else {
    for (double c : counts) {
      if (c > 0.0) {
        const double p = c / total;
        result -= p * std::log2(p);
      }
    }
  }
  return result;
}

/// Class-count accumulator of the classifier under Gini or entropy; also
/// adds each split's weighted impurity decrease to the importances.
class ClassCounts {
 public:
  ClassCounts(const std::vector<std::size_t>& labels, std::size_t num_classes,
              DecisionTreeClassifier::Criterion criterion, Vector& importances)
      : labels_(labels),
        criterion_(criterion),
        importances_(importances),
        counts_(num_classes),
        left_(num_classes),
        right_(num_classes) {}

  double open(std::span<const std::uint32_t> rows, TreeNode& node) {
    n_ = static_cast<double>(rows.size());
    std::fill(counts_.begin(), counts_.end(), 0.0);
    for (const std::uint32_t r : rows) counts_[labels_[r]] += 1.0;
    node.class_counts = counts_;
    node.value = static_cast<double>(static_cast<std::size_t>(std::distance(
        counts_.begin(), std::max_element(counts_.begin(), counts_.end()))));
    impurity_ = impurity(counts_, n_, criterion_);
    return impurity_;
  }
  void clear_left() { std::fill(left_.begin(), left_.end(), 0.0); }
  void add_left(std::uint32_t r) { left_[labels_[r]] += 1.0; }
  [[nodiscard]] double gain(double left_n, double right_n) {
    for (std::size_t c = 0; c < counts_.size(); ++c) {
      right_[c] = counts_[c] - left_[c];
    }
    return impurity_ - (left_n / n_) * impurity(left_, left_n, criterion_) -
           (right_n / n_) * impurity(right_, right_n, criterion_);
  }
  void record_split(std::size_t feature, double gain) {
    importances_[feature] += gain * n_;
  }

 private:
  const std::vector<std::size_t>& labels_;
  DecisionTreeClassifier::Criterion criterion_;
  Vector& importances_;
  std::vector<double> counts_;
  std::vector<double> left_;
  std::vector<double> right_;
  double n_ = 0.0;
  double impurity_ = 0.0;
};

/// The leaf that `x` reaches from the root.
const TreeNode& reach_leaf(const std::vector<TreeNode>& nodes,
                           const Vector& x) {
  const TreeNode* node = &nodes.front();
  while (node->feature >= 0) {
    node = x[static_cast<std::size_t>(node->feature)] <= node->threshold
               ? &nodes[static_cast<std::size_t>(node->left)]
               : &nodes[static_cast<std::size_t>(node->right)];
  }
  return *node;
}

}  // namespace

RegressionTree::RegressionTree() : RegressionTree(Config{}) {}

RegressionTree::RegressionTree(Config config) : config_(config) {
  EXPLORA_EXPECTS(config.max_depth >= 1);
  EXPLORA_EXPECTS(config.min_samples_leaf >= 1);
}

void RegressionTree::fit(const std::vector<Vector>& features,
                         const Vector& targets) {
  EXPLORA_EXPECTS(!features.empty());
  EXPLORA_EXPECTS(features.size() == targets.size());
  nodes_.clear();
  PresortedRows presorted(features);
  SquaredError acc(targets);
  grow(presorted, acc, config_, nodes_, 0, features.size(), 0);
}

double RegressionTree::predict(const Vector& x) const {
  EXPLORA_EXPECTS(!nodes_.empty());
  return reach_leaf(nodes_, x).value;
}

DecisionTreeClassifier::DecisionTreeClassifier()
    : DecisionTreeClassifier(Config{}) {}

DecisionTreeClassifier::DecisionTreeClassifier(Config config)
    : config_(config) {
  EXPLORA_EXPECTS(config.max_depth >= 1);
  EXPLORA_EXPECTS(config.min_samples_leaf >= 1);
}

void DecisionTreeClassifier::fit(const Dataset& data,
                                 std::size_t num_classes) {
  EXPLORA_EXPECTS(data.size() > 0);
  EXPLORA_EXPECTS(data.features.size() == data.labels.size());
  EXPLORA_EXPECTS(num_classes >= 2);
  for (std::size_t label : data.labels) {
    EXPLORA_EXPECTS(label < num_classes);
  }
  num_classes_ = num_classes;
  num_features_ = data.features.front().size();
  nodes_.clear();
  importances_.assign(num_features_, 0.0);
  PresortedRows presorted(data.features);
  ClassCounts acc(data.labels, num_classes_, config_.criterion, importances_);
  grow(presorted, acc, config_, nodes_, 0, data.size(), 0);
  // Normalize importances to sum to one (when any split was made).
  const double total =
      std::accumulate(importances_.begin(), importances_.end(), 0.0);
  if (total > 0.0) {
    for (double& imp : importances_) imp /= total;
  }
}

const TreeNode& DecisionTreeClassifier::walk(const Vector& x) const {
  EXPLORA_EXPECTS(!nodes_.empty());
  EXPLORA_EXPECTS(x.size() == num_features_);
  return reach_leaf(nodes_, x);
}

std::size_t DecisionTreeClassifier::predict(const Vector& x) const {
  return static_cast<std::size_t>(walk(x).value);
}

Vector DecisionTreeClassifier::predict_proba(const Vector& x) const {
  const TreeNode& leaf = walk(x);
  const double total = std::accumulate(leaf.class_counts.begin(),
                                       leaf.class_counts.end(), 0.0);
  Vector probs(num_classes_, 0.0);
  if (total > 0.0) {
    for (std::size_t c = 0; c < num_classes_; ++c) {
      probs[c] = leaf.class_counts[c] / total;
    }
  }
  return probs;
}

double DecisionTreeClassifier::accuracy(const Dataset& data) const {
  EXPLORA_EXPECTS(data.size() > 0);
  std::size_t correct = 0;
  for (std::size_t i = 0; i < data.size(); ++i) {
    if (predict(data.features[i]) == data.labels[i]) ++correct;
  }
  return static_cast<double>(correct) / static_cast<double>(data.size());
}

Vector DecisionTreeClassifier::feature_importances() const {
  return importances_;
}

Vector DecisionTreeClassifier::path_attribution(const Vector& x) const {
  EXPLORA_EXPECTS(!nodes_.empty());
  EXPLORA_EXPECTS(x.size() == num_features_);
  Vector attribution(num_features_, 0.0);
  const TreeNode* node = &nodes_.front();
  double total = 0.0;
  while (node->feature >= 0) {
    const auto f = static_cast<std::size_t>(node->feature);
    const bool unseen =
        attribution[f] == 0.0;  // det-ok: float-eq (sentinel we wrote)
    if (unseen && importances_[f] > 0.0) {
      attribution[f] = importances_[f];
      total += importances_[f];
    }
    node = x[f] <= node->threshold
               ? &nodes_[static_cast<std::size_t>(node->left)]
               : &nodes_[static_cast<std::size_t>(node->right)];
  }
  if (total > 0.0) {
    for (double& a : attribution) a /= total;
  }
  return attribution;
}

std::size_t DecisionTreeClassifier::depth() const noexcept {
  // Iterative depth computation over the index-linked nodes.
  if (nodes_.empty()) return 0;
  std::vector<std::pair<std::int32_t, std::size_t>> stack{{0, 1}};
  std::size_t max_depth = 0;
  while (!stack.empty()) {
    const auto [index, depth] = stack.back();
    stack.pop_back();
    max_depth = std::max(max_depth, depth);
    const TreeNode& node = nodes_[static_cast<std::size_t>(index)];
    if (node.feature >= 0) {
      stack.push_back({node.left, depth + 1});
      stack.push_back({node.right, depth + 1});
    }
  }
  return max_depth;
}

std::string DecisionTreeClassifier::to_rules(
    const std::vector<std::string>& feature_names,
    const std::vector<std::string>& class_names) const {
  EXPLORA_EXPECTS(feature_names.size() == num_features_);
  EXPLORA_EXPECTS(class_names.size() == num_classes_);
  std::string out;
  std::function<void(std::int32_t, std::size_t)> render =
      [&](std::int32_t index, std::size_t indent) {
        const TreeNode& node = nodes_[static_cast<std::size_t>(index)];
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
        out += common::format(
            "{}if {} <= {:.4f}:\n", pad,
            feature_names[static_cast<std::size_t>(node.feature)],
            node.threshold);
        render(node.left, indent + 1);
        out += common::format(
            "{}else:  # {} > {:.4f}\n", pad,
            feature_names[static_cast<std::size_t>(node.feature)],
            node.threshold);
        render(node.right, indent + 1);
      };
  render(0, 0);
  return out;
}

std::vector<std::string> DecisionTreeClassifier::decision_paths(
    const std::vector<std::string>& feature_names,
    const std::vector<std::string>& class_names) const {
  EXPLORA_EXPECTS(feature_names.size() == num_features_);
  EXPLORA_EXPECTS(class_names.size() == num_classes_);
  std::vector<std::string> paths;
  std::function<void(std::int32_t, std::string)> visit =
      [&](std::int32_t index, std::string prefix) {
        const TreeNode& node = nodes_[static_cast<std::size_t>(index)];
        if (node.feature < 0) {
          const auto cls = static_cast<std::size_t>(node.value);
          paths.push_back(prefix.empty()
                              ? common::format("always -> {}",
                                               class_names[cls])
                              : common::format("{} -> {}", prefix,
                                               class_names[cls]));
          return;
        }
        const std::string& name =
            feature_names[static_cast<std::size_t>(node.feature)];
        const std::string left_cond =
            common::format("{} <= {:.4f}", name, node.threshold);
        const std::string right_cond =
            common::format("{} > {:.4f}", name, node.threshold);
        visit(node.left,
              prefix.empty() ? left_cond : prefix + " AND " + left_cond);
        visit(node.right,
              prefix.empty() ? right_cond : prefix + " AND " + right_cond);
      };
  visit(0, "");
  return paths;
}

}  // namespace explora::xai
