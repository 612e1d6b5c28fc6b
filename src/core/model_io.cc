#include "core/model_io.h"

#include <filesystem>
#include <fstream>

#include "util/string_util.h"

namespace actor {
namespace {

Result<VertexType> ParseVertexType(const std::string& s) {
  if (s == "T") return VertexType::kTime;
  if (s == "L") return VertexType::kLocation;
  if (s == "W") return VertexType::kWord;
  if (s == "U") return VertexType::kUser;
  return Status::InvalidArgument("unknown vertex type: " + s);
}

}  // namespace

Status SaveActorModel(const ActorModel& model, const BuiltGraphs& graphs,
                      const std::string& dir) {
  std::error_code ec;
  std::filesystem::create_directories(dir, ec);
  if (ec) return Status::IOError("cannot create directory " + dir);
  if (model.center.rows() != graphs.activity.num_vertices()) {
    return Status::InvalidArgument(
        "model rows do not match the activity graph vertex count");
  }
  ACTOR_RETURN_NOT_OK(model.center.Save(dir + "/center.txt"));
  ACTOR_RETURN_NOT_OK(model.context.Save(dir + "/context.txt"));

  std::ofstream out(dir + "/vertices.tsv");
  if (!out) return Status::IOError("cannot write vertices.tsv in " + dir);
  for (VertexId v = 0; v < graphs.activity.num_vertices(); ++v) {
    out << v << '\t' << VertexTypeName(graphs.activity.vertex_type(v))
        << '\t' << graphs.activity.vertex_name(v) << '\n';
  }
  if (!out.good()) return Status::IOError("write failed: vertices.tsv");
  return Status::OK();
}

Result<LoadedModel> LoadedModel::Load(const std::string& dir) {
  LoadedModel model;
  EmbeddingMatrix center;
  ACTOR_ASSIGN_OR_RETURN(center, EmbeddingMatrix::Load(dir + "/center.txt"));
  ACTOR_ASSIGN_OR_RETURN(model.context_,
                         EmbeddingMatrix::Load(dir + "/context.txt"));
  if (center.rows() != model.context_.rows() ||
      center.dim() != model.context_.dim()) {
    return Status::InvalidArgument(
        "center/context shapes disagree in " + dir);
  }

  std::ifstream in(dir + "/vertices.tsv");
  if (!in) return Status::IOError("cannot read vertices.tsv in " + dir);
  const std::size_t n = static_cast<std::size_t>(center.rows());
  OnlineCatalog catalog;
  catalog.types.resize(n);
  catalog.names.resize(n);
  std::vector<bool> seen(n, false);
  std::string line;
  std::size_t rows = 0;
  while (std::getline(in, line)) {
    if (line.empty()) continue;
    const auto fields = Split(line, '\t');
    if (fields.size() != 3) {
      return Status::InvalidArgument("malformed vertices.tsv row: " + line);
    }
    const VertexId v = static_cast<VertexId>(std::strtol(
        fields[0].c_str(), nullptr, 10));
    if (v < 0 || v >= center.rows()) {
      return Status::OutOfRange("vertex id out of range in vertices.tsv");
    }
    const auto slot = static_cast<std::size_t>(v);
    if (seen[slot]) {
      return Status::InvalidArgument(
          StrPrintf("vertices.tsv repeats vertex id %d", v));
    }
    seen[slot] = true;
    ACTOR_ASSIGN_OR_RETURN(catalog.types[slot], ParseVertexType(fields[1]));
    catalog.names[slot] = fields[2];
    model.index_[fields[2]] = v;
    ++rows;
  }
  if (rows != n) {
    return Status::InvalidArgument(StrPrintf(
        "vertices.tsv has %zu rows but the matrix has %d", rows,
        center.rows()));
  }
  model.snapshot_ = ModelSnapshot::FromOnline(
      ChunkedMatrix::FullCopy(center), std::move(catalog), /*version=*/0);
  return model;
}

VertexId LoadedModel::Lookup(const std::string& name) const {
  auto it = index_.find(name);
  return it == index_.end() ? kInvalidVertex : it->second;
}

Result<std::vector<Neighbor>> LoadedModel::NearestOfType(VertexId query,
                                                         VertexType type,
                                                         int k) const {
  if (query < 0 || query >= num_vertices()) {
    return Status::OutOfRange(
        StrPrintf("vertex %d is not in the model", query));
  }
  return QueryEngine(snapshot_).QueryByVector(
      snapshot_->center().row(query), type, k, /*exclude=*/query);
}

}  // namespace actor
