#include "kernels/calibration.hh"

#include <algorithm>
#include <cmath>
#include <memory>
#include <string>

#include "kernels/aes128.hh"
#include "kernels/lz_compress.hh"
#include "kernels/memops.hh"
#include "util/logging.hh"
#include "util/rng.hh"
#include "util/wall_timer.hh"

namespace accel::kernels {

namespace {

/** Median of a small vector (copied; callers keep their order). */
double
median(std::vector<double> xs)
{
    ensure(!xs.empty(), "median of empty vector");
    std::sort(xs.begin(), xs.end());
    size_t mid = xs.size() / 2;
    if (xs.size() % 2 == 1)
        return xs[mid];
    return 0.5 * (xs[mid - 1] + xs[mid]);
}

/** Time one invocation in seconds on the injected wall clock. */
double
timeOnce(const std::function<std::uint64_t(size_t)> &op, size_t bytes,
         std::uint64_t &sink, const WallTimer &timer)
{
    double start = timer.seconds();
    sink ^= op(bytes);
    return timer.seconds() - start;
}

/** Synthetic log-like text with realistic redundancy. */
std::vector<std::uint8_t>
logLikeData(size_t bytes, Rng &rng)
{
    static const char *words[] = {
        "GET", "POST", "/api/v2/feed", "/api/v2/ads", "status=200",
        "status=404", "latency_us=", "user_id=", "region=prn",
        "region=ftw", "cache_hit", "cache_miss", "bytes=",
    };
    std::vector<std::uint8_t> out;
    out.reserve(bytes + 32);
    while (out.size() < bytes) {
        const char *w = words[rng.below(sizeof(words) / sizeof(words[0]))];
        for (const char *p = w; *p; ++p)
            out.push_back(static_cast<std::uint8_t>(*p));
        out.push_back(' ');
        if (rng.chance(0.2)) {
            std::uint32_t v = rng.below(100000);
            for (char c : std::to_string(v))
                out.push_back(static_cast<std::uint8_t>(c));
            out.push_back('\n');
        }
    }
    out.resize(bytes);
    return out;
}

} // namespace

Calibration
fitLinear(const std::vector<std::pair<double, double>> &samples)
{
    require(samples.size() >= 2, "fitLinear: need at least two samples");
    double sx = 0, sy = 0, sxx = 0, sxy = 0;
    double n = static_cast<double>(samples.size());
    for (const auto &[x, y] : samples) {
        sx += x;
        sy += y;
        sxx += x * x;
        sxy += x * y;
    }
    double denom = n * sxx - sx * sx;
    require(denom != 0, "fitLinear: need at least two distinct sizes");
    double slope = (n * sxy - sx * sy) / denom;
    double intercept = (sy - slope * sx) / n;

    double ss_tot = 0, ss_res = 0;
    double mean_y = sy / n;
    for (const auto &[x, y] : samples) {
        double fit = slope * x + intercept;
        ss_tot += (y - mean_y) * (y - mean_y);
        ss_res += (y - fit) * (y - fit);
    }
    double r2 = ss_tot > 0 ? 1.0 - ss_res / ss_tot : 1.0;
    return {slope, intercept, r2};
}

Calibration
calibrate(const std::function<std::uint64_t(size_t)> &op,
          const std::vector<size_t> &sizes, double clockGHz,
          int repetitions, const WallTimer &timer)
{
    require(clockGHz > 0, "calibrate: clock must be positive");
    require(repetitions >= 1, "calibrate: need at least one repetition");
    double cycles_per_second = clockGHz * 1e9;

    std::uint64_t sink = 0;
    std::vector<std::pair<double, double>> samples;
    for (size_t bytes : sizes) {
        // Warm caches and code paths once before timing.
        sink ^= op(bytes);
        std::vector<double> times;
        times.reserve(static_cast<size_t>(repetitions));
        for (int r = 0; r < repetitions; ++r)
            times.push_back(timeOnce(op, bytes, sink, timer));
        samples.emplace_back(static_cast<double>(bytes),
                             median(times) * cycles_per_second);
    }
    // Keep the sink live so the measured work cannot be discarded.
    if (sink == 0xdeadbeefcafef00dULL)
        warn("calibrate: improbable sink value");
    return fitLinear(samples);
}

Calibration
calibrateAesCtr(double clockGHz)
{
    std::array<std::uint8_t, Aes128::kKeySize> key{};
    for (size_t i = 0; i < key.size(); ++i)
        key[i] = static_cast<std::uint8_t>(i);
    auto cipher = std::make_shared<Aes128>(key);
    Rng rng(42);
    auto data = std::make_shared<std::vector<std::uint8_t>>(
        logLikeData(64 * 1024, rng));
    std::array<std::uint8_t, Aes128::kBlockSize> iv{};

    auto op = [cipher, data, iv](size_t bytes) -> std::uint64_t {
        std::vector<std::uint8_t> input(data->begin(),
                                        data->begin() +
                                            static_cast<long>(bytes));
        auto out = cipher->ctr(input, iv);
        return out.empty() ? 0 : out.back();
    };
    return calibrate(op, {256, 1024, 4096, 16384, 65536}, clockGHz);
}

Calibration
calibrateLzCompress(double clockGHz)
{
    Rng rng(44);
    auto data = std::make_shared<std::vector<std::uint8_t>>(
        logLikeData(64 * 1024, rng));
    auto op = [data](size_t bytes) -> std::uint64_t {
        std::vector<std::uint8_t> input(data->begin(),
                                        data->begin() +
                                            static_cast<long>(bytes));
        auto frame = lzCompress(input);
        return frame.size();
    };
    return calibrate(op, {256, 1024, 4096, 16384, 65536}, clockGHz);
}

Calibration
calibrateMemOp(int op, double clockGHz)
{
    auto harness = std::make_shared<MemOpHarness>(1 << 20);
    MemOp mem_op = static_cast<MemOp>(op);
    auto fn = [harness, mem_op](size_t bytes) -> std::uint64_t {
        return harness->run(mem_op, bytes);
    };
    return calibrate(fn, {256, 4096, 65536, 262144, 1048576}, clockGHz);
}

} // namespace accel::kernels
