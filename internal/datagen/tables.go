package datagen

import (
	"repro/internal/sim/mem"
	"repro/internal/xrand"
)

// Column is one integer column of a columnar table, with real values
// and a simulated base address. All relational kernels run on integer
// columns; string predicates in the originals become dictionary-encoded
// integer predicates here, which preserves the scan/compare/hash
// behaviour the cache and branch models observe.
type Column struct {
	Name string
	Vals []int64
	Base uint64
}

// Table is a columnar table.
type Table struct {
	Name string
	Rows int
	Cols []*Column
}

// Col returns the named column; it panics if absent (schema errors are
// programming errors in this repository).
func (t *Table) Col(name string) *Column {
	for _, c := range t.Cols {
		if c.Name == name {
			return c
		}
	}
	panic("datagen: table " + t.Name + " has no column " + name)
}

// Bytes returns the table's simulated size in bytes.
func (t *Table) Bytes() int { return t.Rows * len(t.Cols) * 8 }

// bindTable attaches cached table content to fresh simulated
// addresses, allocating per column in declaration order — the same
// allocation sequence the original generate-and-allocate loop
// performed, so addresses are unchanged.
func bindTable(l *mem.Layout, c TableContent) *Table {
	t := &Table{Name: c.Name, Rows: c.Rows}
	for _, cc := range c.Cols {
		col := &Column{Name: cc.Name, Vals: cc.Vals}
		col.Base = l.AllocArray(c.Rows, 8)
		t.Cols = append(t.Cols, col)
	}
	return t
}

// ECommerce is the paper's e-commerce transaction dataset: an ORDER
// table with 4 columns and an order-ITEM table with 6 columns
// (Table 1: 38658 and 242735 rows in the original; scaled here).
type ECommerce struct {
	Orders *Table
	Items  *Table
}

// NewECommerce builds the two transaction tables; items references
// orders with a skewed foreign key. Content is cached per
// (seed, orderRows, itemRows); only addresses are bound per run.
func NewECommerce(l *mem.Layout, seed uint64, orderRows, itemRows int) *ECommerce {
	type key struct {
		Seed                uint64
		OrderRows, ItemRows int
	}
	c := fillContent("datagen-ecommerce", key{seed, orderRows, itemRows}, func() *ECommerceContent {
		orders := genTable("order", orderRows,
			[]string{"order_id", "buyer_id", "create_date", "amount"},
			func(r *xrand.Rand, col, row int) int64 {
				switch col {
				case 0:
					return int64(row)
				case 1:
					return int64(r.Intn(orderRows / 4))
				case 2:
					return int64(20120101 + r.Intn(720))
				default:
					return int64(r.Intn(100000)) // cents
				}
			}, seed)
		z := xrand.NewZipf(orderRows, 0.8)
		items := genTable("item", itemRows,
			[]string{"item_id", "order_id", "goods_id", "goods_number", "goods_price", "goods_amount"},
			func(r *xrand.Rand, col, row int) int64 {
				switch col {
				case 0:
					return int64(row)
				case 1:
					return int64(z.Sample(r))
				case 2:
					return int64(r.Intn(5000))
				case 3:
					return int64(1 + r.Intn(8))
				case 4:
					return int64(100 + r.Intn(20000))
				default:
					return int64(100 + r.Intn(160000))
				}
			}, seed^0x17EA5)
		return &ECommerceContent{Orders: orders, Items: items}
	})
	return &ECommerce{Orders: bindTable(l, c.Orders), Items: bindTable(l, c.Items)}
}

// TPCDS is the TPC-DS web-table stand-in: a star schema with one fact
// table and three dimensions — the subset exercised by the paper's
// query workloads (Q3, Q8, Q10 in Table 2).
type TPCDS struct {
	StoreSales *Table // fact
	DateDim    *Table
	Item       *Table
	Customer   *Table
}

// NewTPCDS builds the star schema at the given fact-table scale.
// Content is cached per (seed, factRows); the binder allocates the
// four tables in the original order (date_dim, item, customer,
// store_sales), so simulated addresses are unchanged.
func NewTPCDS(l *mem.Layout, seed uint64, factRows int) *TPCDS {
	type key struct {
		Seed     uint64
		FactRows int
	}
	c := fillContent("datagen-tpcds", key{seed, factRows}, func() *TPCDSContent {
		dateRows := 2000
		itemRows := 4000
		custRows := 8000
		d := &TPCDSContent{}
		d.DateDim = genTable("date_dim", dateRows,
			[]string{"d_date_sk", "d_year", "d_moy"},
			func(r *xrand.Rand, col, row int) int64 {
				switch col {
				case 0:
					return int64(row)
				case 1:
					return int64(1998 + row/366)
				default:
					return int64(1 + (row/30)%12)
				}
			}, seed)
		d.Item = genTable("item", itemRows,
			[]string{"i_item_sk", "i_brand_id", "i_category_id", "i_manufact_id"},
			func(r *xrand.Rand, col, row int) int64 {
				switch col {
				case 0:
					return int64(row)
				case 1:
					return int64(r.Intn(500))
				case 2:
					return int64(r.Intn(10))
				default:
					return int64(r.Intn(200))
				}
			}, seed^0x1)
		d.Customer = genTable("customer", custRows,
			[]string{"c_customer_sk", "c_birth_year", "c_county"},
			func(r *xrand.Rand, col, row int) int64 {
				switch col {
				case 0:
					return int64(row)
				case 1:
					return int64(1930 + r.Intn(70))
				default:
					return int64(r.Intn(50))
				}
			}, seed^0x2)
		zi := xrand.NewZipf(itemRows, 0.9)
		zc := xrand.NewZipf(custRows, 0.7)
		d.StoreSales = genTable("store_sales", factRows,
			[]string{"ss_sold_date_sk", "ss_item_sk", "ss_customer_sk", "ss_quantity", "ss_sales_price"},
			func(r *xrand.Rand, col, row int) int64 {
				switch col {
				case 0:
					return int64(r.Intn(dateRows))
				case 1:
					return int64(zi.Sample(r))
				case 2:
					return int64(zc.Sample(r))
				case 3:
					return int64(1 + r.Intn(20))
				default:
					return int64(50 + r.Intn(30000))
				}
			}, seed^0x3)
		return d
	})
	return &TPCDS{
		DateDim:    bindTable(l, c.DateDim),
		Item:       bindTable(l, c.Item),
		Customer:   bindTable(l, c.Customer),
		StoreSales: bindTable(l, c.StoreSales),
	}
}

// KVStore is the ProfSearch-resume stand-in behind the cloud-OLTP
// workloads: n records of ValBytes bytes each (1128 in Table 2),
// addressable by key, with a sorted key index (the HBase block index)
// and a Zipfian request popularity distribution.
type KVStore struct {
	N        int
	ValBytes int
	// Keys is sorted ascending; record i's value lives at
	// ValBase + i*ValBytes.
	Keys []uint64
	// IndexBase addresses the key index; ValBase the value heap;
	// MemBase the memstore hash table region.
	IndexBase, ValBase, MemBase uint64
	// MemBuckets is the memstore hash bucket count.
	MemBuckets int
	// Pop is the request popularity sampler.
	Pop *xrand.Zipf
}

// NewKVStore builds the store with n records of valBytes each. The
// key set is cached content; the popularity sampler is shared derived
// state (immutable, rebuilt per process).
func NewKVStore(l *mem.Layout, seed uint64, n, valBytes int) *KVStore {
	c := kvContent(seed, n)
	kv := &KVStore{N: n, ValBytes: valBytes, MemBuckets: 4096, Keys: c.Keys}
	kv.IndexBase = l.AllocArray(n, 8)
	kv.ValBase = l.AllocArray(n, uint64(valBytes))
	kv.MemBase = l.AllocArray(kv.MemBuckets, 64)
	kv.Pop = sharedZipf(n, 1.1)
	return kv
}

// ValAddr returns the simulated address of record i's value.
func (kv *KVStore) ValAddr(i int) uint64 {
	return kv.ValBase + uint64(i)*uint64(kv.ValBytes)
}

// Bytes returns the store's simulated size.
func (kv *KVStore) Bytes() int { return kv.N * (kv.ValBytes + 8) }
