graph social {
  node Person [count = 100000] {
    country: text = dictionary("countries");
    sex: text = categorical("M": 0.5, "F": 0.5);
    name: text = first_names() given (country, sex);
    age: long = uniform(18, 90);
    creationDate: date = date_between("2010-01-01", "2013-01-01");
    temporal {
      arrival = date_between("2010-01-01", "2013-01-01");
      lifetime = uniform(90, 900);
    }
  }
  node Message {
    topic: text = dictionary("topics");
    text: text = sentence_about(5, 12) given (topic);
  }
  edge knows: Person -- Person [many_to_many] {
    structure = lfr(avg_degree = 10, max_degree = 30, mixing = 0.1);
    correlate country with homophily(0.8);
    creationDate: date = date_after(30) given (source.creationDate, target.creationDate);
    temporal {
      arrival = date_between("2010-06-01", "2013-01-01");
      lifetime = uniform(30, 365);
    }
  }
  edge creates: Person -> Message [one_to_many] {
    structure = one_to_many(dist = "zipf", exponent = 1.5, max = 40);
  }
}
