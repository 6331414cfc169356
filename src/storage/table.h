// Copyright (c) ERMIA reproduction authors. Licensed under the MIT license.
//
// Catalog objects: a Table owns an indirection array (OID -> version chain);
// an Index owns a concurrent B+-tree mapping keys to OIDs in its table.
// Tables and indexes share one FID space so log records identify their target
// unambiguously (table records carry payloads, index records carry keys).
#ifndef ERMIA_STORAGE_TABLE_H_
#define ERMIA_STORAGE_TABLE_H_

#include <memory>
#include <string>
#include <vector>

#include "common/macros.h"
#include "index/btree.h"
#include "storage/indirection_array.h"

namespace ermia {

class Index;

class Table {
 public:
  Table(Fid fid, std::string name) : fid_(fid), name_(std::move(name)) {}
  ERMIA_NO_COPY(Table);

  Fid fid() const { return fid_; }
  const std::string& name() const { return name_; }
  IndirectionArray& array() { return array_; }
  const IndirectionArray& array() const { return array_; }

  void RegisterIndex(Index* index) { indexes_.push_back(index); }
  const std::vector<Index*>& indexes() const { return indexes_; }

 private:
  Fid fid_;
  std::string name_;
  IndirectionArray array_;
  std::vector<Index*> indexes_;
};

class Index {
 public:
  Index(Fid fid, std::string name, Table* table)
      : fid_(fid), name_(std::move(name)), table_(table) {
    table_->RegisterIndex(this);
  }
  ERMIA_NO_COPY(Index);

  Fid fid() const { return fid_; }
  const std::string& name() const { return name_; }
  Table* table() const { return table_; }
  BTree& tree() { return tree_; }
  const BTree& tree() const { return tree_; }

 private:
  Fid fid_;
  std::string name_;
  Table* table_;
  BTree tree_;
};

// One index key and the OID it maps to. Transactions keep the entries they
// inserted (removed again on abort) and the keys of records they deleted
// (handed to the garbage collector at commit, which retires them).
struct IndexEntry {
  Index* index;
  Varstr key;
  Oid oid;
};

}  // namespace ermia

#endif  // ERMIA_STORAGE_TABLE_H_
