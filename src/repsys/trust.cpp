#include "repsys/trust.h"

#include <algorithm>
#include <cstdint>
#include <sstream>
#include <stdexcept>

namespace hpr::repsys {
namespace {

class AverageAccumulator final : public TrustAccumulator {
public:
    explicit AverageAccumulator(double prior) : prior_(prior) {}

    void update(bool good) override {
        ++total_;
        if (good) ++good_;
    }

    [[nodiscard]] double value() const override {
        return total_ == 0 ? prior_
                           : static_cast<double>(good_) / static_cast<double>(total_);
    }

    [[nodiscard]] std::unique_ptr<TrustAccumulator> clone() const override {
        return std::make_unique<AverageAccumulator>(*this);
    }

    [[nodiscard]] std::size_t memory_bytes() const noexcept override {
        return sizeof(*this);
    }

private:
    double prior_;
    std::uint64_t good_ = 0;
    std::uint64_t total_ = 0;
};

class WeightedAccumulator final : public TrustAccumulator {
public:
    WeightedAccumulator(double lambda, double initial)
        : lambda_(lambda), value_(initial) {}

    void update(bool good) override {
        value_ = lambda_ * (good ? 1.0 : 0.0) + (1.0 - lambda_) * value_;
    }

    [[nodiscard]] double value() const override { return value_; }

    [[nodiscard]] std::unique_ptr<TrustAccumulator> clone() const override {
        return std::make_unique<WeightedAccumulator>(*this);
    }

    [[nodiscard]] std::size_t memory_bytes() const noexcept override {
        return sizeof(*this);
    }

private:
    double lambda_;
    double value_;
};

class BetaAccumulator final : public TrustAccumulator {
public:
    void update(bool good) override {
        if (good) {
            ++good_;
        } else {
            ++bad_;
        }
    }

    [[nodiscard]] double value() const override {
        return (static_cast<double>(good_) + 1.0) /
               (static_cast<double>(good_ + bad_) + 2.0);
    }

    [[nodiscard]] std::unique_ptr<TrustAccumulator> clone() const override {
        return std::make_unique<BetaAccumulator>(*this);
    }

    [[nodiscard]] std::size_t memory_bytes() const noexcept override {
        return sizeof(*this);
    }

private:
    std::uint64_t good_ = 0;
    std::uint64_t bad_ = 0;
};

class TrustGuardAccumulator final : public TrustAccumulator {
public:
    TrustGuardAccumulator(double alpha, double beta, double gamma, std::size_t window)
        : alpha_(alpha), beta_(beta), gamma_(gamma), window_(window) {}

    void update(bool good) override {
        const double value = good ? 1.0 : 0.0;
        ++total_;
        integral_sum_ += value;
        current_window_sum_ += value;
        if (++current_window_fill_ == window_) {
            previous_window_mean_ = last_window_mean_;
            last_window_mean_ = current_window_sum_ / static_cast<double>(window_);
            has_window_ = true;
            current_window_sum_ = 0.0;
            current_window_fill_ = 0;
        }
    }

    [[nodiscard]] double value() const override {
        if (total_ == 0) return 0.5;
        const double integral = integral_sum_ / static_cast<double>(total_);
        // "Current" is the latest complete window when one exists, else
        // the partial window so newcomers still get a reading.
        const double current =
            has_window_ ? last_window_mean_
                        : current_window_sum_ /
                              static_cast<double>(current_window_fill_);
        const double derivative = has_window_ && previous_window_mean_ >= 0.0
                                      ? last_window_mean_ - previous_window_mean_
                                      : 0.0;
        const double raw = alpha_ * current + beta_ * integral + gamma_ * derivative;
        return std::min(1.0, std::max(0.0, raw));
    }

    [[nodiscard]] std::unique_ptr<TrustAccumulator> clone() const override {
        return std::make_unique<TrustGuardAccumulator>(*this);
    }

    [[nodiscard]] std::size_t memory_bytes() const noexcept override {
        return sizeof(*this);
    }

private:
    double alpha_;
    double beta_;
    double gamma_;
    std::size_t window_;
    std::uint64_t total_ = 0;
    double integral_sum_ = 0.0;
    double current_window_sum_ = 0.0;
    std::size_t current_window_fill_ = 0;
    double last_window_mean_ = 0.0;
    double previous_window_mean_ = -1.0;  // sentinel: no previous window yet
    bool has_window_ = false;
};

class DecayAccumulator final : public TrustAccumulator {
public:
    DecayAccumulator(double gamma, double prior) : gamma_(gamma), prior_(prior) {}

    void update(bool good) override {
        numerator_ = gamma_ * numerator_ + (good ? 1.0 : 0.0);
        denominator_ = gamma_ * denominator_ + 1.0;
    }

    [[nodiscard]] double value() const override {
        return denominator_ == 0.0 ? prior_ : numerator_ / denominator_;
    }

    [[nodiscard]] std::unique_ptr<TrustAccumulator> clone() const override {
        return std::make_unique<DecayAccumulator>(*this);
    }

    [[nodiscard]] std::size_t memory_bytes() const noexcept override {
        return sizeof(*this);
    }

private:
    double gamma_;
    double prior_;
    double numerator_ = 0.0;
    double denominator_ = 0.0;
};

}  // namespace

double TrustFunction::evaluate(std::span<const Feedback> feedbacks) const {
    const auto acc = make_accumulator();
    for (const Feedback& f : feedbacks) acc->update(f.good());
    return acc->value();
}

AverageTrust::AverageTrust(double prior) : prior_(prior) {
    if (!(prior >= 0.0 && prior <= 1.0)) {
        throw std::invalid_argument("AverageTrust: prior must be in [0, 1]");
    }
}

std::unique_ptr<TrustAccumulator> AverageTrust::make_accumulator() const {
    return std::make_unique<AverageAccumulator>(prior_);
}

WeightedTrust::WeightedTrust(double lambda, double initial)
    : lambda_(lambda), initial_(initial) {
    if (!(lambda > 0.0 && lambda <= 1.0)) {
        throw std::invalid_argument("WeightedTrust: lambda must be in (0, 1]");
    }
    if (!(initial >= 0.0 && initial <= 1.0)) {
        throw std::invalid_argument("WeightedTrust: initial must be in [0, 1]");
    }
}

std::string WeightedTrust::name() const {
    std::ostringstream out;
    out << "weighted(" << lambda_ << ")";
    return out.str();
}

std::unique_ptr<TrustAccumulator> WeightedTrust::make_accumulator() const {
    return std::make_unique<WeightedAccumulator>(lambda_, initial_);
}

std::unique_ptr<TrustAccumulator> BetaTrust::make_accumulator() const {
    return std::make_unique<BetaAccumulator>();
}

TrustGuardTrust::TrustGuardTrust(double alpha, double beta, double gamma,
                                 std::size_t window)
    : alpha_(alpha), beta_(beta), gamma_(gamma), window_(window) {
    if (window_ == 0) {
        throw std::invalid_argument("TrustGuardTrust: window must be positive");
    }
    if (alpha_ < 0.0 || beta_ < 0.0) {
        throw std::invalid_argument(
            "TrustGuardTrust: alpha and beta must be non-negative");
    }
}

std::string TrustGuardTrust::name() const {
    std::ostringstream out;
    out << "trustguard(" << alpha_ << "," << beta_ << "," << gamma_ << ")";
    return out.str();
}

std::unique_ptr<TrustAccumulator> TrustGuardTrust::make_accumulator() const {
    return std::make_unique<TrustGuardAccumulator>(alpha_, beta_, gamma_, window_);
}

DecayTrust::DecayTrust(double gamma, double prior) : gamma_(gamma), prior_(prior) {
    if (!(gamma > 0.0 && gamma <= 1.0)) {
        throw std::invalid_argument("DecayTrust: gamma must be in (0, 1]");
    }
    if (!(prior >= 0.0 && prior <= 1.0)) {
        throw std::invalid_argument("DecayTrust: prior must be in [0, 1]");
    }
}

std::string DecayTrust::name() const {
    std::ostringstream out;
    out << "decay(" << gamma_ << ")";
    return out.str();
}

std::unique_ptr<TrustAccumulator> DecayTrust::make_accumulator() const {
    return std::make_unique<DecayAccumulator>(gamma_, prior_);
}

std::unique_ptr<TrustFunction> make_trust_function(const std::string& spec) {
    const auto colon = spec.find(':');
    const std::string kind = spec.substr(0, colon);
    const bool has_param = colon != std::string::npos;
    double param = 0.0;
    if (has_param) {
        try {
            param = std::stod(spec.substr(colon + 1));
        } catch (const std::exception&) {
            throw std::invalid_argument("make_trust_function: bad parameter in '" +
                                        spec + "'");
        }
    }
    if (kind == "average") {
        return has_param ? std::make_unique<AverageTrust>(param)
                         : std::make_unique<AverageTrust>();
    }
    if (kind == "weighted") {
        return has_param ? std::make_unique<WeightedTrust>(param)
                         : std::make_unique<WeightedTrust>();
    }
    if (kind == "beta") {
        return std::make_unique<BetaTrust>();
    }
    if (kind == "decay") {
        return has_param ? std::make_unique<DecayTrust>(param)
                         : std::make_unique<DecayTrust>();
    }
    if (kind == "trustguard") {
        return std::make_unique<TrustGuardTrust>();
    }
    throw std::invalid_argument("make_trust_function: unknown spec '" + spec + "'");
}

std::vector<std::string> known_trust_functions() {
    return {"average",       "average:<prior>", "weighted", "weighted:<lambda>",
            "beta",          "decay",           "decay:<gamma>",
            "trustguard"};
}

}  // namespace hpr::repsys
