#include "reference.hh"

#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <vector>

#include "runs.hh"
#include "src/common/log.hh"

namespace perfbench {

namespace {

constexpr std::size_t kDim = 512;
/** 8192 rows x 512 floats = 16 MiB: past L2, within a shared L3. */
constexpr std::size_t kRows = 8192;
constexpr int kScans = 4;
/** 64 x 512 floats = 128 KiB: stays in a core's L2. */
constexpr std::size_t kDenseRows = 64;
constexpr int kDenseRounds = 400;
/** 2^18 counters = 1 MiB, updated at pseudo-random slots. */
constexpr std::size_t kSlots = std::size_t{1} << 18;
constexpr int kUpdates = 4'000'000;

std::uint64_t
xorshift(std::uint64_t &s)
{
    s ^= s << 13;
    s ^= s >> 7;
    s ^= s << 17;
    return s;
}

/** Dot product with eight partial sums (a fixed summation order). */
float
dot(const float *a, const float *b)
{
    float acc[8] = {};
    for (std::size_t d = 0; d < kDim; d += 8)
        for (std::size_t j = 0; j < 8; ++j)
            acc[j] += a[d + j] * b[d + j];
    return ((acc[0] + acc[1]) + (acc[2] + acc[3])) +
        ((acc[4] + acc[5]) + (acc[6] + acc[7]));
}

/** Index of the row of `rows` with the largest dot product. */
std::size_t
bestRow(const std::vector<float> &rows, const float *query)
{
    std::size_t best = 0;
    float bestDot = -1e30f;
    for (std::size_t r = 0; r * kDim < rows.size(); ++r) {
        const float d = dot(rows.data() + r * kDim, query);
        if (d > bestDot) {
            bestDot = d;
            best = r;
        }
    }
    return best;
}

ReferencePass
runPass()
{
    std::uint64_t s = 0x9e3779b97f4a7c15ULL;
    const auto fill = [&s](std::vector<float> &v) {
        for (auto &x : v)
            x = static_cast<float>(xorshift(s) % 2001) * 1e-3f - 1.0f;
    };
    std::vector<float> rows(kRows * kDim), dense(kDenseRows * kDim),
        vec(kDim);
    fill(rows);
    fill(dense);
    fill(vec);
    std::vector<float> product(kDenseRows);
    std::vector<std::uint32_t> slots(kSlots);

    // Everything is allocated and touched before the clock starts.
    ReferencePass pass;
    const double start = processCpuS();
    std::uint64_t sum = 0;
    for (int i = 0; i < kDenseRounds; ++i) {
        // A matrix-vector product fed back into its input, kept bounded.
        for (std::size_t r = 0; r < kDenseRows; ++r)
            product[r] = dot(dense.data() + r * kDim, vec.data());
        for (std::size_t d = 0; d < kDim; ++d)
            vec[d] = 0.5f * vec[d] + 1e-3f * product[d % kDenseRows];
    }
    sum = sum * 31 + bestRow(dense, vec.data());
    for (int i = 0; i < kScans; ++i)
        sum = sum * 31 + bestRow(rows, dense.data() + i * kDim);
    for (int i = 0; i < kUpdates; ++i)
        slots[xorshift(s) & (kSlots - 1)] += 1;
    for (std::size_t i = 0; i < kSlots; i += 4099)
        sum = sum * 31 + slots[i];
    pass.cpuS = processCpuS() - start;
    pass.checksum = sum;
    return pass;
}

} // namespace

ReferencePass
referencePass()
{
    int fds[2];
    if (pipe(fds) != 0)
        modm::fatal("perfbench: no pipe for the reference pass");
    const pid_t pid = fork();
    if (pid < 0)
        modm::fatal("perfbench: cannot fork the reference pass");
    if (pid == 0) {
        close(fds[0]);
        const ReferencePass pass = runPass();
        const bool sent = write(fds[1], &pass, sizeof pass) ==
            static_cast<ssize_t>(sizeof pass);
        _exit(sent ? 0 : 1);
    }
    close(fds[1]);
    ReferencePass pass;
    ssize_t got;
    do {
        got = read(fds[0], &pass, sizeof pass);
    } while (got < 0 && errno == EINTR);
    close(fds[0]);
    int status = 0;
    while (waitpid(pid, &status, 0) < 0 && errno == EINTR) {
    }
    if (got != static_cast<ssize_t>(sizeof pass) || !WIFEXITED(status) ||
        WEXITSTATUS(status) != 0)
        modm::fatal("perfbench: the reference pass did not finish");
    return pass;
}

} // namespace perfbench
