graph ledger_temporal {
  node Account [count = 50000] {
    country: text = dictionary("countries");
    balance: double = normal(1000.0, 250.0);
    opened: date = date_between("2012-01-01", "2020-01-01");
    temporal {
      arrival = date_between("2012-01-01", "2020-01-01");
      lifetime = uniform(365, 3650);
    }
  }
  edge transfers: Account -> Account [many_to_many] {
    structure = rmat(edge_factor = 16);
    correlate country with homophily(0.8);
    amount: long = uniform(1, 10000);
    temporal {
      arrival = date_between("2012-06-01", "2020-01-01");
      lifetime = uniform(30, 365);
    }
  }
  edge refers: Account -> Account [many_to_many] {
    structure = barabasi_albert(m = 2);
  }
}
