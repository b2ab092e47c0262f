#include "stats/calibrate.h"

#include <algorithm>
#include <cmath>
#include <fstream>
#include <iterator>
#include <map>
#include <set>
#include <sstream>
#include <stdexcept>
#include <thread>
#include <utility>

#include "obs/metrics.h"
#include "obs/timer.h"
#include "obs/trace.h"

namespace hpr::stats {

namespace {

/// Process-wide calibration metrics (aggregated over every Calibrator
/// instance).  Resolved once; recording afterwards is lock-free.
struct CalibrationMetrics {
    CacheInstruments cache;
    obs::Histogram& compute_seconds;
};

CalibrationMetrics& calibration_metrics() {
    auto& registry = obs::default_registry();
    static CalibrationMetrics metrics{
        {
            .hits = &registry.counter("hpr_calibration_cache_hits_total",
                                      "Threshold lookups answered from the memo cache"),
            .misses = &registry.counter(
                "hpr_calibration_cache_misses_total",
                "Cold lookups that ran a Monte-Carlo null computation"),
            .joins = &registry.counter("hpr_calibration_single_flight_joins_total",
                                       "Lookups that joined an in-flight computation"),
            .entries = &registry.gauge("hpr_calibration_cache_entries",
                                       "Memoized null samples across live calibrators"),
        },
        registry.histogram("hpr_calibration_compute_seconds",
                           "Wall time of one per-key Monte-Carlo null computation"),
    };
    return metrics;
}

}  // namespace

double sorted_quantile(const std::vector<double>& sorted, double q) {
    if (sorted.empty()) {
        throw std::invalid_argument("sorted_quantile: empty sample");
    }
    if (!(q >= 0.0 && q <= 1.0)) {
        throw std::invalid_argument("sorted_quantile: q must be in [0, 1]");
    }
    if (sorted.size() == 1) return sorted.front();
    const double pos = q * static_cast<double>(sorted.size() - 1);
    const auto lo = static_cast<std::size_t>(pos);
    const std::size_t hi = std::min(lo + 1, sorted.size() - 1);
    const double frac = pos - static_cast<double>(lo);
    return sorted[lo] * (1.0 - frac) + sorted[hi] * frac;
}

double empirical_quantile(std::vector<double> values, double q) {
    if (values.empty()) {
        throw std::invalid_argument("empirical_quantile: empty sample");
    }
    std::sort(values.begin(), values.end());
    return sorted_quantile(values, q);
}

Calibrator::Calibrator(CalibrationConfig config)
    : config_(config), cache_(calibration_metrics().cache) {
    if (!(config_.confidence > 0.0 && config_.confidence < 1.0)) {
        throw std::invalid_argument("Calibrator: confidence must be in (0, 1)");
    }
    if (config_.replications == 0) {
        throw std::invalid_argument("Calibrator: need at least one replication");
    }
    if (config_.p_grid == 0) {
        throw std::invalid_argument("Calibrator: p_grid must be positive");
    }
    if (config_.windows_cap == 0) {
        throw std::invalid_argument("Calibrator: windows_cap must be positive");
    }
    if (!(config_.windows_grid_ratio >= 1.0)) {
        throw std::invalid_argument("Calibrator: windows_grid_ratio must be >= 1");
    }
    if (config_.windows_grid_ratio > 1.0) {
        // The deterministic integer grid 1, 2, 3, ... with ~ratio spacing,
        // up to windows_cap.  Its size grows with log(windows_cap), so even
        // a huge cap stays a short table.
        const std::size_t cap = config_.windows_cap;
        for (std::size_t point = 1;;) {
            window_grid_.push_back(point);
            const double scaled =
                std::floor(static_cast<double>(point) * config_.windows_grid_ratio);
            // Compared as doubles first so the conversion cannot overflow.
            if (scaled > static_cast<double>(cap) || scaled >= 0x1p64) break;
            const std::size_t next = std::max(point + 1, static_cast<std::size_t>(scaled));
            if (next > cap) break;
            point = next;
        }
    }
}

std::size_t Calibrator::threads() const noexcept {
    if (config_.threads != 0) return config_.threads;
    const unsigned hardware = std::thread::hardware_concurrency();
    return hardware == 0 ? 1 : hardware;
}

ThreadPool& Calibrator::pool() const {
    // Lazily started so purely warm-cache calibrators never spawn threads.
    std::call_once(pool_once_, [this] {
        pool_ = std::make_unique<ThreadPool>(threads() - 1);
    });
    return *pool_;
}

std::size_t Calibrator::effective_windows(std::size_t windows) const {
    const std::size_t k = std::min(windows, config_.windows_cap);
    if (window_grid_.empty()) return k;  // ratio 1.0: exact per-k calibration
    // The largest grid point <= k (conservative: smaller k means a larger
    // calibrated threshold).
    const auto above = std::upper_bound(window_grid_.begin(), window_grid_.end(), k);
    return above == window_grid_.begin() ? window_grid_.front() : *std::prev(above);
}

Calibrator::Key Calibrator::make_key(std::size_t windows, std::uint32_t m,
                                     double p_hat) const {
    if (windows == 0) {
        throw std::invalid_argument("Calibrator: need at least one window");
    }
    if (m == 0) {
        throw std::invalid_argument("Calibrator: window size must be positive");
    }
    if (!(p_hat >= 0.0 && p_hat <= 1.0)) {
        throw std::invalid_argument("Calibrator: p_hat must be in [0, 1]");
    }
    auto bucket = static_cast<std::uint32_t>(
        std::lround(p_hat * static_cast<double>(config_.p_grid)));
    // Never round a non-degenerate p̂ onto the degenerate endpoints: the
    // null distance at p = 1 (or 0) is exactly zero, which would condemn
    // any history containing a single opposite outcome to fail forever.
    if (bucket == 0 && p_hat > 0.0) bucket = 1;
    if (bucket == config_.p_grid && p_hat < 1.0) bucket = config_.p_grid - 1;
    return Key{effective_windows(windows), m, bucket};
}

std::vector<double> Calibrator::compute_null(const Key& key) const {
    obs::ScopedTimer span{calibration_metrics().compute_seconds};
    // Cold-key Monte-Carlo runs dominate first-contact assessment latency;
    // make them visible in the decision trace (the single-flight leader
    // computes on the assessing thread, so the context is reachable here).
    obs::TraceSpan trace_span{"calibrate/compute"};
    const double p = static_cast<double>(key.p_bucket) / static_cast<double>(config_.p_grid);
    const Binomial reference{key.m, p};
    const auto& ref_pmf = reference.pmf_table();

    // Derive a per-key seed so null samples are independent of call order.
    const std::uint64_t key_seed = config_.seed ^ (key.windows * 0x9e3779b97f4a7c15ULL) ^
                                   (static_cast<std::uint64_t>(key.m) << 32) ^ key.p_bucket;

    // Each chunk of kChunkReplications replications draws from its own
    // stream seeded by splitmix64(key_seed + chunk): a pure function of
    // key and chunk index, so the multiset of distances — and after the
    // sort, the exact vector — is identical whether the chunks ran on one
    // thread or many, in any order.
    const std::size_t chunks =
        (config_.replications + kChunkReplications - 1) / kChunkReplications;
    std::vector<double> distances(config_.replications);
    const auto run_chunk = [&](std::size_t chunk) {
        std::uint64_t state = key_seed + chunk;
        Rng rng{splitmix64(state)};
        EmpiricalDistribution sample{key.m};
        const std::size_t begin = chunk * kChunkReplications;
        const std::size_t end =
            std::min(begin + kChunkReplications, config_.replications);
        for (std::size_t r = begin; r < end; ++r) {
            sample.clear();
            for (std::uint64_t i = 0; i < key.windows; ++i) {
                sample.add(reference.sample(rng));
            }
            distances[r] = distance(sample, ref_pmf, config_.kind);
        }
    };
    if (chunks > 1 && threads() > 1) {
        pool().parallel_for(chunks, run_chunk);
    } else {
        for (std::size_t chunk = 0; chunk < chunks; ++chunk) run_chunk(chunk);
    }
    std::sort(distances.begin(), distances.end());
    return distances;
}

double Calibrator::threshold(std::size_t windows, std::uint32_t m, double p_hat) {
    return threshold(windows, m, p_hat, config_.confidence);
}

double Calibrator::threshold(std::size_t windows, std::uint32_t m, double p_hat,
                             double confidence) {
    if (!(confidence > 0.0 && confidence < 1.0)) {
        throw std::invalid_argument("Calibrator::threshold: confidence in (0, 1)");
    }
    return sorted_quantile(*null_distances(windows, m, p_hat), confidence);
}

std::shared_ptr<const std::vector<double>> Calibrator::null_distances(
    std::size_t windows, std::uint32_t m, double p_hat) {
    const Key key = make_key(windows, m, p_hat);
    return cache_.get(key, [&] { return compute_null(key); });
}

std::size_t Calibrator::precalibrate(const std::vector<std::size_t>& windows,
                                     const std::vector<std::uint32_t>& window_sizes,
                                     const std::vector<double>& p_hats) {
    // Quantization collapses many grid points onto one key; dedup first so
    // the fan-out is over distinct Monte-Carlo computations.
    std::set<Key> keys;
    for (const std::size_t k : windows) {
        for (const std::uint32_t m : window_sizes) {
            for (const double p : p_hats) {
                keys.insert(make_key(k, m, p));
            }
        }
    }
    std::vector<Key> cold;
    for (const Key& key : keys) {
        if (!cache_.contains(key)) cold.push_back(key);
    }
    if (cold.empty()) return 0;
    // Through the cache (not compute_null directly) so a request racing
    // the warm-up joins the in-flight computation instead of duplicating it.
    pool().parallel_for(cold.size(), [&](std::size_t i) {
        (void)cache_.get(cold[i], [&] { return compute_null(cold[i]); });
    });
    return cold.size();
}

std::string Calibrator::header_line() const {
    std::ostringstream header;
    header << "hpr-calibration-cache v2 kind=" << to_string(config_.kind)
           << " replications=" << config_.replications << " p_grid=" << config_.p_grid
           << " seed=" << config_.seed << " chunk=" << kChunkReplications;
    return header.str();
}

void Calibrator::save_cache(const std::string& path) const {
    std::ofstream out{path};
    if (!out) {
        throw std::runtime_error("Calibrator::save_cache: cannot open '" + path + "'");
    }
    std::vector<std::pair<Key, std::shared_ptr<const std::vector<double>>>> samples;
    cache_.for_each([&samples](const Key& key, const auto& null_sample) {
        samples.emplace_back(key, null_sample);
    });
    std::sort(samples.begin(), samples.end(),
              [](const auto& a, const auto& b) { return a.first < b.first; });
    out << header_line() << '\n';
    out.precision(17);
    for (const auto& [key, null_sample] : samples) {
        out << key.windows << ' ' << key.m << ' ' << key.p_bucket << ':';
        for (const double v : *null_sample) out << ' ' << v;
        out << '\n';
    }
    if (!out) {
        throw std::runtime_error("Calibrator::save_cache: write to '" + path +
                                 "' failed");
    }
}

void Calibrator::load_cache(const std::string& path) {
    std::ifstream in{path};
    if (!in) {
        throw std::runtime_error("Calibrator::load_cache: cannot open '" + path + "'");
    }
    const auto fail = [&path](std::size_t line_no, const std::string& what) {
        throw std::runtime_error("Calibrator::load_cache: " + what + " in '" + path +
                                 "' at line " + std::to_string(line_no));
    };
    std::string header;
    std::getline(in, header);
    if (header != header_line()) {
        throw std::runtime_error(
            "Calibrator::load_cache: calibration parameters in '" + path +
            "' do not match this calibrator");
    }
    std::string line;
    std::size_t line_no = 1;
    std::map<Key, std::vector<double>> loaded;
    while (std::getline(in, line)) {
        ++line_no;
        if (line.empty()) continue;
        const auto colon = line.find(':');
        if (colon == std::string::npos) {
            fail(line_no, "malformed line");
        }
        Key key{};
        {
            std::istringstream key_in{line.substr(0, colon)};
            if (!(key_in >> key.windows >> key.m >> key.p_bucket)) {
                fail(line_no, "unparseable key");
            }
        }
        // A poisoned key would silently serve wrong thresholds on every
        // later lookup that buckets onto it — validate against this
        // calibrator's quantization grids before accepting anything.
        if (key.windows == 0) {
            fail(line_no, "invalid key (windows must be >= 1)");
        }
        if (key.m == 0) {
            fail(line_no, "invalid key (window size must be >= 1)");
        }
        if (key.p_bucket > config_.p_grid) {
            fail(line_no, "invalid key (p bucket beyond p_grid)");
        }
        if (key.windows > config_.windows_cap ||
            key.windows != effective_windows(key.windows)) {
            fail(line_no, "invalid key (window count off the calibration grid)");
        }
        if (loaded.contains(key)) {
            fail(line_no, "duplicate key");
        }
        std::vector<double> values;
        values.reserve(config_.replications);
        std::istringstream value_in{line.substr(colon + 1)};
        double v = 0.0;
        while (value_in >> v) values.push_back(v);
        if (values.size() != config_.replications ||
            !std::is_sorted(values.begin(), values.end()) ||
            !std::all_of(values.begin(), values.end(),
                         [](double d) { return std::isfinite(d) && d >= 0.0; })) {
            fail(line_no, "corrupt null sample");
        }
        loaded.emplace(key, std::move(values));
    }
    // A resident sample is kept: it is already the one the validated
    // header implies.
    for (auto& [key, values] : loaded) (void)cache_.insert_absent(key, std::move(values));
}

}  // namespace hpr::stats
