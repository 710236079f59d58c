#include "adios/adios.h"

#include <cctype>
#include <cassert>
#include <cstdlib>

namespace imc::adios {

Result<Method> parse_method(const std::string& name) {
  if (name == "MPI" || name == "MPI_AGGREGATE" || name == "MPIIO" ||
      name == "MPI-IO") {
    return Method::kMpiIo;
  }
  if (name == "DATASPACES") return Method::kDataspaces;
  if (name == "DIMES") return Method::kDimes;
  if (name == "FLEXPATH") return Method::kFlexpath;
  return make_error(ErrorCode::kInvalidArgument,
                    "unknown ADIOS method '" + name + "'");
}

std::string_view to_string(Method method) {
  switch (method) {
    case Method::kMpiIo:
      return "MPI";
    case Method::kDataspaces:
      return "DATASPACES";
    case Method::kDimes:
      return "DIMES";
    case Method::kFlexpath:
      return "FLEXPATH";
  }
  return "?";
}

const GroupDecl* AdiosConfig::group(const std::string& name) const {
  for (const auto& g : groups) {
    if (g.name == name) return &g;
  }
  return nullptr;
}

Result<AdiosConfig> parse_config(const std::string& xml) {
  auto root = parse_xml(xml);
  if (!root.has_value()) return root.status();
  if (root->name != "adios-config") {
    return make_error(ErrorCode::kInvalidArgument,
                      "root element must be <adios-config>, got <" +
                          root->name + ">");
  }
  AdiosConfig config;
  for (const XmlNode* group_node : root->children_named("adios-group")) {
    GroupDecl group;
    group.name = group_node->attr("name");
    if (group.name.empty()) {
      return make_error(ErrorCode::kInvalidArgument,
                        "<adios-group> requires a name attribute");
    }
    for (const XmlNode* var_node : group_node->children_named("var")) {
      VarDecl var;
      var.name = var_node->attr("name");
      var.dimensions = var_node->attr("dimensions");
      var.type = var_node->attr("type", "double");
      if (var.name.empty() || var.dimensions.empty()) {
        return make_error(ErrorCode::kInvalidArgument,
                          "<var> requires name and dimensions");
      }
      group.vars.push_back(std::move(var));
    }
    config.groups.push_back(std::move(group));
  }
  for (const XmlNode* method_node : root->children_named("method")) {
    const std::string group_name = method_node->attr("group");
    auto method = parse_method(method_node->attr("method"));
    if (!method.has_value()) return method.status();
    bool found = false;
    for (auto& group : config.groups) {
      if (group.name == group_name) {
        group.method = *method;
        group.parameters = method_node->attr("parameters");
        found = true;
      }
    }
    if (!found) {
      return make_error(ErrorCode::kInvalidArgument,
                        "<method> references unknown group '" + group_name +
                            "'");
    }
  }
  if (const XmlNode* buffer = root->child("buffer")) {
    const std::string mb = buffer->attr("size-MB", "64");
    config.buffer_bytes =
        static_cast<std::uint64_t>(std::strtoull(mb.c_str(), nullptr, 10)) *
        kMiB;
  }
  if (const XmlNode* stats = root->child("analysis")) {
    config.stats = stats->attr("stats", "on") != "off";
  }
  return config;
}

Result<nda::Dims> resolve_dims(
    const std::string& spec,
    const std::map<std::string, std::uint64_t>& symbols) {
  nda::Dims dims;
  std::size_t pos = 0;
  while (pos <= spec.size()) {
    const std::size_t comma = spec.find(',', pos);
    std::string token = spec.substr(
        pos, comma == std::string::npos ? std::string::npos : comma - pos);
    // Trim.
    while (!token.empty() && token.front() == ' ') token.erase(0, 1);
    while (!token.empty() && token.back() == ' ') token.pop_back();
    if (token.empty()) {
      return make_error(ErrorCode::kInvalidArgument,
                        "empty dimension in '" + spec + "'");
    }
    if (dims.size() == nda::Dims::kMaxRank) {
      return make_error(ErrorCode::kInvalidArgument,
                        "more than " + std::to_string(nda::Dims::kMaxRank) +
                            " dimensions in '" + spec + "'");
    }
    if (std::isdigit(static_cast<unsigned char>(token[0]))) {
      dims.push_back(std::strtoull(token.c_str(), nullptr, 10));
    } else {
      auto it = symbols.find(token);
      if (it == symbols.end()) {
        return make_error(ErrorCode::kInvalidArgument,
                          "unknown dimension symbol '" + token + "'");
      }
      dims.push_back(it->second);
    }
    if (comma == std::string::npos) break;
    pos = comma + 1;
  }
  return dims;
}

// ------------------------------------------------------------------ Io ----

namespace {
// Per-variable BP metadata footer and the min/max statistics scan rate.
constexpr std::uint64_t kBpFooterBytes = 4 * kKiB;
constexpr double kStatsScanBandwidth = 10e9;  // bytes/s at Titan speed
}  // namespace

Io::Io(sim::Engine& engine, const AdiosConfig& config, const GroupDecl& group,
       Backends backends, mem::ProcessMemory& memory, double cpu_speed)
    : engine_(&engine),
      config_(&config),
      group_(&group),
      backends_(backends),
      memory_(&memory),
      cpu_speed_(cpu_speed) {}

sim::Task<Status> Io::open_write(const std::string& path) {
  path_ = path;
  switch (group_->method) {
    case Method::kMpiIo: {
      assert(backends_.lustre != nullptr && backends_.node != nullptr);
      // Table I: lfs setstripe -stripe-size 1m -stripe-count -1.
      auto file = co_await backends_.lustre->open(path);
      if (!file.has_value()) co_return file.status();
      file_ = std::move(*file);
      break;
    }
    case Method::kDataspaces:
      assert(backends_.dataspaces != nullptr);
      if (Status st = co_await backends_.dataspaces->init(); !st.is_ok()) {
        co_return st;
      }
      break;
    case Method::kDimes:
      assert(backends_.dimes != nullptr);
      if (Status st = co_await backends_.dimes->init(); !st.is_ok()) {
        co_return st;
      }
      break;
    case Method::kFlexpath:
      assert(backends_.flexpath_writer != nullptr);
      if (Status st = co_await backends_.flexpath_writer->open(group_->name);
          !st.is_ok()) {
        co_return st;
      }
      break;
  }
  open_ = true;
  co_return Status::ok();
}

sim::Task<Status> Io::write(const nda::VarDesc& var, const nda::Slab& slab) {
  if (!open_) {
    co_return make_error(ErrorCode::kFailedPrecondition, "file not open");
  }
  const std::uint64_t bytes = slab.box().volume() * nda::kElementBytes;
  if (buffered_bytes_ + bytes > config_->buffer_bytes) {
    co_return make_error(
        ErrorCode::kOutOfMemory,
        "ADIOS buffer exceeded: " + std::to_string(buffered_bytes_ + bytes) +
            " > " + std::to_string(config_->buffer_bytes) +
            " B (raise <buffer size-MB>)");
  }
  if (Status st = memory_->allocate(mem::Tag::kLibrary, bytes); !st.is_ok()) {
    co_return st;
  }
  buffered_bytes_ += bytes;
  if (config_->stats) {
    // min/max/avg statistics pass over the payload.
    co_await engine_->sleep(static_cast<double>(bytes) /
                            (kStatsScanBandwidth * cpu_speed_));
  }
  pending_.push_back(Pending{var, slab.extract(slab.box())});
  co_return Status::ok();
}

sim::Task<Status> Io::close() {
  if (!open_) {
    co_return make_error(ErrorCode::kFailedPrecondition, "file not open");
  }
  Status result = Status::ok();
  for (auto& pending : pending_) {
    const std::uint64_t bytes =
        pending.slab.box().volume() * nda::kElementBytes;
    switch (group_->method) {
      case Method::kMpiIo: {
        Status st = co_await file_->write(*backends_.node, file_->size(),
                                          bytes + kBpFooterBytes);
        if (st.is_ok()) {
          backends_.lustre->record_object(path_, pending.var,
                                          std::move(pending.slab));
        } else {
          result = st;
        }
        break;
      }
      case Method::kDataspaces: {
        Status st =
            co_await backends_.dataspaces->put(pending.var, pending.slab);
        if (!st.is_ok()) result = st;
        break;
      }
      case Method::kDimes: {
        Status st = co_await backends_.dimes->put(pending.var, pending.slab);
        if (!st.is_ok()) result = st;
        break;
      }
      case Method::kFlexpath: {
        Status st = co_await backends_.flexpath_writer->write_step(
            pending.var, pending.slab);
        if (!st.is_ok()) result = st;
        break;
      }
    }
    memory_->free(mem::Tag::kLibrary, bytes);
    buffered_bytes_ -= bytes;
  }
  pending_.clear();
  if (group_->method == Method::kMpiIo && result.is_ok()) {
    // adios_close on the MPI method closes the BP file: one more metadata
    // operation per rank per step on the (few) Lustre MDS.
    co_await backends_.lustre->close(*file_);
  }
  co_return result;
}

sim::Task<Status> Io::commit(const nda::VarDesc& var) {
  switch (group_->method) {
    case Method::kDataspaces:
      co_return co_await backends_.dataspaces->publish(var);
    case Method::kDimes:
      co_return co_await backends_.dimes->publish(var);
    case Method::kMpiIo:
    case Method::kFlexpath:
      co_return Status::ok();
  }
  co_return Status::ok();
}

sim::Task<Status> Io::open_read(const std::string& path) {
  path_ = path;
  switch (group_->method) {
    case Method::kMpiIo: {
      assert(backends_.lustre != nullptr && backends_.node != nullptr);
      auto file = co_await backends_.lustre->open(path);
      if (!file.has_value()) co_return file.status();
      file_ = std::move(*file);
      break;
    }
    case Method::kDataspaces:
      if (Status st = co_await backends_.dataspaces->init(); !st.is_ok()) {
        co_return st;
      }
      break;
    case Method::kDimes:
      if (Status st = co_await backends_.dimes->init(); !st.is_ok()) {
        co_return st;
      }
      break;
    case Method::kFlexpath:
      assert(backends_.flexpath_reader != nullptr);
      if (Status st = co_await backends_.flexpath_reader->open(group_->name);
          !st.is_ok()) {
        co_return st;
      }
      break;
  }
  open_ = true;
  co_return Status::ok();
}

sim::Task<Result<nda::Slab>> Io::read(const nda::VarDesc& var,
                                      const nda::Box& box) {
  if (!open_) {
    co_return make_error(ErrorCode::kFailedPrecondition, "file not open");
  }
  switch (group_->method) {
    case Method::kMpiIo: {
      const std::uint64_t bytes = box.volume() * nda::kElementBytes;
      if (Status st = co_await file_->read(*backends_.node, 0, bytes);
          !st.is_ok()) {
        co_return st;
      }
      auto hits = backends_.lustre->find_objects(path_, var, box);
      std::uint64_t covered = 0;
      for (const auto* slab : hits) {
        covered += nda::intersect(slab->box(), box)->volume();
      }
      if (covered < box.volume()) {
        co_return make_error(ErrorCode::kNotFound,
                             "file covers only " + std::to_string(covered) +
                                 " of " + std::to_string(box.volume()) +
                                 " elements");
      }
      co_return nda::assemble(box, hits, kMpiIoReadCapElems);
    }
    case Method::kDataspaces: {
      if (Status st = co_await backends_.dataspaces->wait_version(
              var.name, var.version);
          !st.is_ok()) {
        co_return st;
      }
      co_return co_await backends_.dataspaces->get(var, box);
    }
    case Method::kDimes: {
      if (Status st =
              co_await backends_.dimes->wait_version(var.name, var.version);
          !st.is_ok()) {
        co_return st;
      }
      co_return co_await backends_.dimes->get(var, box);
    }
    case Method::kFlexpath:
      co_return co_await backends_.flexpath_reader->read_step(var, box);
  }
  co_return make_error(ErrorCode::kInternal, "unreachable");
}

sim::Task<Status> Io::advance_step(int step) {
  if (group_->method == Method::kFlexpath &&
      backends_.flexpath_reader != nullptr) {
    co_return co_await backends_.flexpath_reader->release_step(step);
  }
  co_return Status::ok();
}

void Io::finalize() {
  switch (group_->method) {
    case Method::kMpiIo:
      file_.reset();
      break;
    case Method::kDataspaces:
      if (backends_.dataspaces != nullptr) backends_.dataspaces->finalize();
      break;
    case Method::kDimes:
      if (backends_.dimes != nullptr) backends_.dimes->finalize();
      break;
    case Method::kFlexpath:
      if (backends_.flexpath_writer != nullptr) {
        backends_.flexpath_writer->close();
      }
      if (backends_.flexpath_reader != nullptr) {
        backends_.flexpath_reader->close();
      }
      break;
  }
  open_ = false;
}

}  // namespace imc::adios
