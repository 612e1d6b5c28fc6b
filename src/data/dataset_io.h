#ifndef ACTOR_DATA_DATASET_IO_H_
#define ACTOR_DATA_DATASET_IO_H_

#include <string>

#include "data/corpus.h"
#include "util/result.h"
#include "util/status.h"

namespace actor {

/// Writes a corpus as TSV with columns:
///   id \t user_id \t timestamp \t x \t y \t mentions(comma-sep) \t text
/// Text tabs/newlines are replaced by spaces.
Status SaveCorpusTsv(const Corpus& corpus, const std::string& path);

/// Reads a corpus written by SaveCorpusTsv. Returns IOError on missing
/// files and InvalidArgument, naming the line, on malformed rows —
/// including a timestamp or coordinate that parses as nan or inf.
Result<Corpus> LoadCorpusTsv(const std::string& path);

}  // namespace actor

#endif  // ACTOR_DATA_DATASET_IO_H_
