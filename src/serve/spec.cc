#include "serve/spec.hh"

#include <algorithm>
#include <fstream>
#include <iterator>
#include <limits>

#include "common/journal_io.hh"
#include "core/mbavf_kernel.hh"
#include "workloads/ace_runner.hh"

namespace mbavf::serve
{

namespace
{

/** Render a number through JsonValue for a stable lexical form. */
std::string
canonicalNumber(double value)
{
    return obs::JsonValue(value).dump();
}

/** Fetch an optional member, type-checked. */
bool
getString(const obs::JsonValue &job, const char *key,
          std::string &out, std::string &error)
{
    const obs::JsonValue *v = job.find(key);
    if (!v)
        return true;
    if (!v->isString()) {
        error = std::string("job field '") + key +
                "' must be a string";
        return false;
    }
    out = v->asString();
    return true;
}

bool
getUint(const obs::JsonValue &job, const char *key,
        std::uint64_t &out, std::string &error)
{
    const obs::JsonValue *v = job.find(key);
    if (!v)
        return true;
    if (v->kind() != obs::JsonValue::Kind::Uint) {
        error = std::string("job field '") + key +
                "' must be a nonnegative integer";
        return false;
    }
    out = v->asUint();
    return true;
}

/** getUint() into an unsigned field; values that do not fit fail. */
bool
getUnsigned(const obs::JsonValue &job, const char *key, unsigned &out,
            std::string &error)
{
    std::uint64_t wide = out;
    if (!getUint(job, key, wide, error))
        return false;
    if (wide > std::numeric_limits<unsigned>::max()) {
        error = std::string("job field '") + key +
                "' does not fit in 32 bits";
        return false;
    }
    out = static_cast<unsigned>(wide);
    return true;
}

bool
getDouble(const obs::JsonValue &job, const char *key, double &out,
          std::string &error)
{
    const obs::JsonValue *v = job.find(key);
    if (!v)
        return true;
    if (!v->isNumber()) {
        error = std::string("job field '") + key +
                "' must be a number";
        return false;
    }
    out = v->asDouble();
    return true;
}

bool
getBool(const obs::JsonValue &job, const char *key, bool &out,
        std::string &error)
{
    const obs::JsonValue *v = job.find(key);
    if (!v)
        return true;
    if (!v->isBool()) {
        error = std::string("job field '") + key +
                "' must be a bool";
        return false;
    }
    out = v->asBool();
    return true;
}

bool
parseJob(const obs::JsonValue &doc, std::size_t index,
         JobConfig &job, std::string &error)
{
    if (!doc.isObject()) {
        error = "job " + std::to_string(index) +
                " is not an object";
        return false;
    }
    std::string type;
    if (!getString(doc, "type", type, error))
        return false;
    if (type == "sweep") {
        job.type = JobType::Sweep;
    } else if (type == "campaign") {
        job.type = JobType::Campaign;
    } else {
        error = "job " + std::to_string(index) +
                ": type must be \"sweep\" or \"campaign\"";
        return false;
    }

    const bool ok = getString(doc, "workload", job.workload, error) &&
        getUnsigned(doc, "scale", job.scale, error) &&
        getString(doc, "structure", job.structure, error) &&
        getString(doc, "scheme", job.scheme, error) &&
        getString(doc, "style", job.style, error) &&
        getUnsigned(doc, "interleave", job.interleave, error) &&
        getUnsigned(doc, "modes", job.modes, error) &&
        getUnsigned(doc, "windows", job.windows, error) &&
        getBool(doc, "shield_due", job.shieldDue, error) &&
        getDouble(doc, "total_fit", job.totalFit, error) &&
        getString(doc, "arena", job.arenaIn, error) &&
        getUint(doc, "trials", job.trials, error) &&
        getUint(doc, "seed", job.seed, error) &&
        getString(doc, "kind", job.kind, error) &&
        getDouble(doc, "watchdog", job.watchdog, error) &&
        getString(doc, "protect", job.protect, error) &&
        getUnsigned(doc, "protect_domain", job.protectDomain, error) &&
        getUint(doc, "shard_trials", job.shardTrials, error) &&
        getString(doc, "fault", job.fault, error);
    const bool strat_ok = ok &&
        getBool(doc, "stratify", job.stratify, error) &&
        getUnsigned(doc, "stratify_windows", job.stratifyWindows, error) &&
        getUnsigned(doc, "stratify_classes", job.stratifyClasses, error) &&
        getUint(doc, "budget", job.budget, error);
    if (!ok || !strat_ok) {
        error = "job " + std::to_string(index) + ": " + error;
        return false;
    }

    if (job.type == JobType::Sweep) {
        if (job.workload.empty() == job.arenaIn.empty()) {
            error = "job " + std::to_string(index) +
                    ": a sweep needs exactly one of workload/arena";
            return false;
        }
        if (job.modes == 0 || job.modes > detail::maxModeBits) {
            error = "job " + std::to_string(index) +
                    ": modes must be in 1.." +
                    std::to_string(detail::maxModeBits);
            return false;
        }
    } else {
        if (job.workload.empty()) {
            error = "job " + std::to_string(index) +
                    ": a campaign needs a workload";
            return false;
        }
        if (job.trials == 0) {
            error = "job " + std::to_string(index) +
                    ": trials must be at least 1";
            return false;
        }
        if (job.stratify && job.kind != "register") {
            error = "job " + std::to_string(index) +
                    ": stratify supports kind \"register\" only";
            return false;
        }
    }
    if (job.stratify && job.type != JobType::Campaign) {
        error = "job " + std::to_string(index) +
                ": stratify applies to campaign jobs only";
        return false;
    }
    if (!job.fault.empty() && job.fault != "crash" &&
        job.fault != "hang") {
        error = "job " + std::to_string(index) +
                ": fault must be \"crash\" or \"hang\"";
        return false;
    }
    return true;
}

} // namespace

const char *
jobTypeName(JobType type)
{
    return type == JobType::Sweep ? "sweep" : "campaign";
}

std::string
JobConfig::effectiveStyle() const
{
    return style.empty() ? defaultStyle(structure) : style;
}

std::string
JobConfig::canonical() const
{
    std::string out;
    out += "type=";
    out += jobTypeName(type);
    out += " workload=" + (workload.empty() ? "-" : workload);
    out += " scale=" + std::to_string(scale);
    if (type == JobType::Sweep) {
        out += " structure=" + structure;
        out += " scheme=" + scheme;
        out += " style=" + effectiveStyle();
        out += " interleave=" + std::to_string(interleave);
        out += " modes=" + std::to_string(modes);
        out += " windows=" + std::to_string(windows);
        out += std::string(" shield_due=") +
               (shieldDue ? "1" : "0");
        out += " total_fit=" + canonicalNumber(totalFit);
        out += " arena=" + (arenaIn.empty() ? "-" : arenaIn);
    } else {
        out += " trials=" + std::to_string(trials);
        out += " seed=" + std::to_string(seed);
        out += " kind=" + kind;
        out += " watchdog=" + canonicalNumber(watchdog);
        out += " protect=" + protect;
        out += " protect_domain=" + std::to_string(protectDomain);
        if (stratify) {
            out += " stratify=1";
            out += " stratify_windows=" +
                   std::to_string(stratifyWindows);
            out += " stratify_classes=" +
                   std::to_string(stratifyClasses);
            out += " budget=" + std::to_string(effectiveTrials());
        }
    }
    if (!fault.empty())
        out += " fault=" + fault;
    return out;
}

bool
JobSpec::parse(const obs::JsonValue &doc, JobSpec &out,
               std::string &error)
{
    out.jobs.clear();
    if (!doc.isObject()) {
        error = "spec is not a JSON object";
        return false;
    }
    const obs::JsonValue *jobs = doc.find("jobs");
    if (!jobs || !jobs->isArray()) {
        error = "spec has no jobs array";
        return false;
    }
    if (jobs->items().empty()) {
        error = "spec lists no jobs";
        return false;
    }
    for (std::size_t i = 0; i < jobs->items().size(); ++i) {
        JobConfig job;
        if (!parseJob(jobs->items()[i], i, job, error))
            return false;
        out.jobs.push_back(std::move(job));
    }
    return true;
}

bool
JobSpec::load(const std::string &path, JobSpec &out,
              std::string &error)
{
    std::ifstream is(path, std::ios::binary);
    if (!is) {
        error = "cannot open spec '" + path + "'";
        return false;
    }
    const std::string text((std::istreambuf_iterator<char>(is)),
                           std::istreambuf_iterator<char>());
    obs::JsonValue doc;
    if (!obs::JsonValue::parse(text, doc, error)) {
        error = "spec '" + path + "': " + error;
        return false;
    }
    if (!parse(doc, out, error)) {
        error = "spec '" + path + "': " + error;
        return false;
    }
    return true;
}

bool
JobSpec::hash(std::uint64_t &out, std::string &error) const
{
    std::uint64_t h = fnv1a64(std::string("mbavf-spec"));
    for (const JobConfig &job : jobs) {
        h = fnv1a64(job.canonical() + "\n", h);
        if (!job.arenaIn.empty()) {
            std::uint64_t content = 0;
            if (!hashFileContents(job.arenaIn, content, error))
                return false;
            h = fnv1a64(&content, sizeof(content), h);
        }
    }
    out = h;
    return true;
}

std::string
ShardSpec::canonical(const JobConfig &config) const
{
    std::string out = config.canonical();
    if (numTrials) {
        out += " first=" + std::to_string(firstTrial);
        out += " n=" + std::to_string(numTrials);
    }
    return out;
}

std::vector<ShardSpec>
shardJobs(const JobSpec &spec)
{
    std::vector<ShardSpec> shards;
    for (std::size_t j = 0; j < spec.jobs.size(); ++j) {
        const JobConfig &job = spec.jobs[j];
        // Stratified campaigns shard over the pick sequence instead
        // of the uniform trial indices; both are contiguous ranges
        // that merge identically at any split.
        const std::uint64_t total = job.effectiveTrials();
        if (job.type == JobType::Sweep || job.shardTrials == 0 ||
            job.shardTrials >= total) {
            ShardSpec shard;
            shard.job = j;
            if (job.type == JobType::Campaign) {
                shard.firstTrial = 0;
                shard.numTrials = total;
            }
            shards.push_back(shard);
            continue;
        }
        for (std::uint64_t first = 0; first < total;
             first += job.shardTrials) {
            ShardSpec shard;
            shard.job = j;
            shard.firstTrial = first;
            shard.numTrials =
                std::min(job.shardTrials, total - first);
            shards.push_back(shard);
        }
    }
    return shards;
}

} // namespace mbavf::serve
