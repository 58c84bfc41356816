"""Synthetic TPC-DS-lite data at a configurable scale factor (for the
S/C reproduction; paper §VI-A uses TPC-DS).

No dsdgen offline, so we synthesize the three fact tables and four
dimension tables the five workloads touch, with FK-consistent
surrogate keys and TPC-DS-proportioned row counts (store_sales :
catalog_sales : web_sales = 4 : 2 : 1). sf=1.0 has TPC-DS SF1's fact,
item and customer row counts, nominally ~1 GB. Tests use
SF<=0.01; benchmarks use SF~=0.1. Everything is generated pandas-first
and is deterministic in ``seed`` so Spark and the DuckDB oracle see
identical bytes. ``TPC-DSp`` (the paper's date-partitioned variant) is
produced by ``write_tpcds(..., partitioned=True)``: facts gain
``d_year`` and are stored partitioned by year.
"""
import numpy as np
import pandas as pd
from pyspark.sql import DataFrame, SparkSession


def _rng(seed: int) -> np.random.Generator:
    return np.random.default_rng(seed)


_N_SS_PER_SF = 2_880_000
_N_CS_PER_SF = 1_440_000
_N_WS_PER_SF = 720_000
_N_CUST_DS_PER_SF = 100_000
_N_ITEM_PER_SF = 18_000
_N_DATES = 1826  # 1998-01-01 .. 2002-12-31, like TPC-DS's active window
_N_STORES = 12
_CATEGORIES = [
    "Books", "Electronics", "Home", "Jewelry", "Music",
    "Shoes", "Sports", "Children", "Men", "Women",
]


def tpcds_date_dim() -> pd.DataFrame:
    """Calendar dimension over the 1998–2002 window (fixed size)."""
    dates = pd.date_range("1998-01-01", periods=_N_DATES, freq="D")
    return pd.DataFrame(
        {
            "d_date_sk": np.arange(1, _N_DATES + 1),
            "d_date": dates,
            "d_year": dates.year.astype("int64"),
            "d_moy": dates.month.astype("int64"),
            "d_qoy": dates.quarter.astype("int64"),
            "d_dom": dates.day.astype("int64"),
            "d_dow": dates.dayofweek.astype("int64"),
        }
    )


def tpcds_item(*, sf: float = 0.01, seed: int = 10) -> pd.DataFrame:
    n = max(200, int(_N_ITEM_PER_SF * sf))
    g = _rng(seed)
    cat_id = g.integers(0, len(_CATEGORIES), n)
    return pd.DataFrame(
        {
            "i_item_sk": np.arange(1, n + 1),
            "i_brand_id": g.integers(1, 1000, n),
            "i_class_id": g.integers(1, 16, n),
            "i_category_id": cat_id + 1,
            "i_category": np.array(_CATEGORIES)[cat_id],
            "i_manufact_id": g.integers(1, 1000, n),
            "i_current_price": (g.random(n) * 99 + 1).round(2),
        }
    )


def tpcds_store(*, seed: int = 11) -> pd.DataFrame:
    g = _rng(seed)
    n = _N_STORES
    return pd.DataFrame(
        {
            "s_store_sk": np.arange(1, n + 1),
            "s_state": g.choice(["TN", "CA", "IL", "NY", "TX", "WA"], n),
            "s_county": g.choice(
                ["Williamson", "Ziebach", "Walker", "Daviess"], n
            ),
            "s_gmt_offset": g.choice([-5.0, -6.0, -7.0, -8.0], n),
        }
    )


def tpcds_customer(*, sf: float = 0.01, seed: int = 12) -> pd.DataFrame:
    n = max(100, int(_N_CUST_DS_PER_SF * sf))
    g = _rng(seed)
    return pd.DataFrame(
        {
            "c_customer_sk": np.arange(1, n + 1),
            "c_birth_year": g.integers(1930, 2001, n),
            "c_preferred_cust_flag": g.choice(["Y", "N"], n),
            "c_state": g.choice(["TN", "CA", "IL", "NY", "TX", "WA"], n),
        }
    )


def _fact(
    n: int, prefix: str, *, n_item: int, n_cust: int, seed: int
) -> pd.DataFrame:
    """Shared shape of the three sales channels: FK columns + measures."""
    g = _rng(seed)
    qty = g.integers(1, 101, n)
    wholesale = (g.random(n) * 99 + 1).round(2)
    list_price = (wholesale * (1.0 + g.random(n))).round(2)
    sales_price = (list_price * (0.3 + 0.7 * g.random(n))).round(2)
    df = pd.DataFrame(
        {
            f"{prefix}_sold_date_sk": g.integers(1, _N_DATES + 1, n),
            f"{prefix}_item_sk": g.integers(1, n_item + 1, n),
            f"{prefix}_customer_sk": g.integers(1, n_cust + 1, n),
            f"{prefix}_quantity": qty,
            f"{prefix}_wholesale_cost": wholesale,
            f"{prefix}_list_price": list_price,
            f"{prefix}_sales_price": sales_price,
            f"{prefix}_ext_sales_price": (sales_price * qty).round(2),
            f"{prefix}_ext_wholesale_cost": (wholesale * qty).round(2),
            f"{prefix}_net_paid": (sales_price * qty).round(2),
            f"{prefix}_net_profit": ((sales_price - wholesale) * qty).round(2),
        }
    )
    return df


def tpcds_pandas(*, sf: float = 0.01, seed: int = 0) -> dict[str, pd.DataFrame]:
    """All seven TPC-DS-lite tables as pandas frames, deterministic in seed."""
    n_item = max(200, int(_N_ITEM_PER_SF * sf))
    n_cust = max(100, int(_N_CUST_DS_PER_SF * sf))
    ss = _fact(
        max(1, int(_N_SS_PER_SF * sf)), "ss",
        n_item=n_item, n_cust=n_cust, seed=seed + 100,
    )
    g = _rng(seed + 104)
    ss["ss_store_sk"] = g.integers(1, _N_STORES + 1, len(ss))
    cs = _fact(
        max(1, int(_N_CS_PER_SF * sf)), "cs",
        n_item=n_item, n_cust=n_cust, seed=seed + 101,
    )
    ws = _fact(
        max(1, int(_N_WS_PER_SF * sf)), "ws",
        n_item=n_item, n_cust=n_cust, seed=seed + 102,
    )
    return {
        "store_sales": ss,
        "catalog_sales": cs,
        "web_sales": ws,
        "date_dim": tpcds_date_dim(),
        "item": tpcds_item(sf=sf, seed=seed + 10),
        "store": tpcds_store(seed=seed + 11),
        "customer": tpcds_customer(sf=sf, seed=seed + 12),
    }


def tpcds_tables(
    spark: SparkSession, *, sf: float = 0.01, seed: int = 0
) -> dict[str, DataFrame]:
    """TPC-DS-lite as Spark DataFrames (same bytes as ``tpcds_pandas``)."""
    return {
        name: spark.createDataFrame(pdf)
        for name, pdf in tpcds_pandas(sf=sf, seed=seed).items()
    }


_FACT_DATE_COL = {
    "store_sales": "ss_sold_date_sk",
    "catalog_sales": "cs_sold_date_sk",
    "web_sales": "ws_sold_date_sk",
}


def write_tpcds(
    spark: SparkSession,
    out_dir: str,
    *,
    sf: float = 0.01,
    seed: int = 0,
    partitioned: bool = False,
) -> dict[str, str]:
    """Materialize TPC-DS-lite to Parquet under ``out_dir``; returns
    table → path. ``partitioned=True`` builds the paper's TPC-DSp
    variant: the three fact tables are joined with date_dim to obtain
    ``d_year`` and written ``partitionBy("d_year")``, so year-filtered
    scans touch far less data (the regime where S/C gains most,
    paper §VI-B)."""
    import os

    paths: dict[str, str] = {}
    for name, df in tpcds_tables(spark, sf=sf, seed=seed).items():
        path = os.path.join(out_dir, name)
        if partitioned and name in _FACT_DATE_COL:
            datecol = _FACT_DATE_COL[name]
            dd = tpcds_date_dim()[["d_date_sk", "d_year"]]
            ddf = spark.createDataFrame(dd)
            joined = df.join(
                ddf, df[datecol] == ddf["d_date_sk"], "left"
            ).drop("d_date_sk")
            joined.write.mode("overwrite").partitionBy("d_year").parquet(path)
        else:
            df.write.mode("overwrite").parquet(path)
        paths[name] = path
    return paths
